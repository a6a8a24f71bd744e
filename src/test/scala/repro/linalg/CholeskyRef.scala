package repro.linalg

import GrowingCholesky.{Jitter, MaxTries}

/** Reference Cholesky factorisation of a whole matrix at once, for the
  * tests. Production code factors only through [[GrowingCholesky]], one row
  * at a time; the tests check its factor, jitter and log-determinant at
  * every size against this, and use it for reference solves.
  */
object CholeskyRef {

  /** Cholesky factor L (lower-triangular) of SPD matrix `a`, with jitter
    * escalation: from [[Jitter]], a failed factorization is retried with
    * 10× the jitter, [[MaxTries]] tries in all. Returns (L, usedJitter).
    *
    * Only the lower triangle of `a` is read (`a(i)(k)` for k ≤ i), so row
    * i of `a` may hold just its first i + 1 entries.
    */
  def cholesky(a: Array[Array[Double]]): (Array[Array[Double]], Double) = {
    val n = a.length
    var j = Jitter
    var tries = 0
    while (tries < MaxTries) {
      val l = Array.ofDim[Double](n, n)
      var ok = true
      var i = 0
      while (ok && i < n) {
        var k = 0
        while (ok && k <= i) {
          var s = 0.0
          var m = 0
          while (m < k) { s += l(i)(m) * l(k)(m); m += 1 }
          if (i == k) {
            val d = a(i)(i) + j - s
            if (d <= 0.0) ok = false else l(i)(i) = math.sqrt(d)
          } else {
            l(i)(k) = (a(i)(k) - s) / l(k)(k)
          }
          k += 1
        }
        i += 1
      }
      if (ok) return (l, j)
      j *= 10; tries += 1
    }
    throw new ArithmeticException(s"cholesky failed after $MaxTries jitter escalations")
  }

  /** log|K| from the Cholesky factor. */
  def logDet(l: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < l.length) { s += math.log(l(i)(i)); i += 1 }
    2.0 * s
  }
}
