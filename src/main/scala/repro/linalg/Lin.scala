package repro.linalg

/** Minimal dense linear algebra for small GP systems (n ≤ a few hundred).
  *
  * Matrices are `Array[Array[Double]]`, row-major; GP fits here never
  * exceed ~100×100. The one loop on the hot path is [[solveLowerBlock]],
  * which solves for a whole block of right-hand sides at once (every
  * candidate a suggestion scores), with the block's columns on the inner
  * loop; the rest is written for clarity over speed.
  */
object Lin {

  final val Jitter = 1e-10
  final val MaxTries = 8

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

  /** Solve L y = b for lower-triangular L. */
  def solveLower(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = l.length
    val y = new Array[Double](n)
    var i = 0
    while (i < n) {
      var s = b(i)
      var k = 0
      while (k < i) { s -= l(i)(k) * y(k); k += 1 }
      y(i) = s / l(i)(i)
      i += 1
    }
    y
  }

  /** Solve L V = B in place for lower-triangular L (n×n) and B given as n
    * rows of m. Row i subtracts L(i, p)·V(p, ·) in increasing p, then
    * divides by L(i, i), so every column gets exactly the operations of
    * [[solveLower]] on it.
    */
  def solveLowerBlock(l: Array[Array[Double]], b: Array[Array[Double]]): Unit = {
    var i = 0
    while (i < l.length) {
      val li = l(i)
      val bi = b(i)
      val m = bi.length
      var p = 0
      while (p < i) {
        val lip = li(p)
        val bp = b(p)
        var q = 0
        while (q < m) { bi(q) -= lip * bp(q); q += 1 }
        p += 1
      }
      val d = li(i)
      var q = 0
      while (q < m) { bi(q) /= d; q += 1 }
      i += 1
    }
  }

  /** Solve Lᵀ x = b for lower-triangular L. */
  def solveUpperT(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = l.length
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = b(i)
      var k = i + 1
      while (k < n) { s -= l(k)(i) * x(k); k += 1 }
      x(i) = s / l(i)(i)
      i -= 1
    }
    x
  }

  /** Solve (L Lᵀ) x = b given the Cholesky factor L. */
  def choleskySolve(l: Array[Array[Double]], b: Array[Double]): Array[Double] =
    solveUpperT(l, solveLower(l, b))

  /** Dot product. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** log|K| from the Cholesky factor. */
  def logDet(l: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < l.length) { s += math.log(l(i)(i)); i += 1 }
    2.0 * s
  }
}
