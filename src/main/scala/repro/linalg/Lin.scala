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
}

/** The Cholesky factor L of a symmetric matrix A that grows by one row
  * and column at a time, with jitter escalation: L·Lᵀ = A + jI for the
  * first j of [[GrowingCholesky.Jitter]], 10× that, 100× that, … at which
  * every pivot is positive, [[GrowingCholesky.MaxTries]] values in all.
  *
  * [[extend]] computes the new row of L at the jitter in use. When a
  * pivot is ≤ 0, it multiplies the jitter by 10 and recomputes every row,
  * again while a pivot fails. Every smaller jitter has already failed on a
  * leading block, so the jitter is the first of the sequence that factors
  * the whole matrix, and L is what a factorisation of the whole matrix from
  * scratch gives, to the bit. Rows of L are never written once stored, so
  * a [[factor]] taken earlier stays valid.
  */
final class GrowingCholesky extends Serializable {
  import GrowingCholesky.{Jitter, MaxTries}
  private var a = new Array[Array[Double]](16) // row i holds A(i, 0..i)
  private var l = new Array[Array[Double]](16)
  private var n = 0
  private var j = Jitter
  private var escalations = 0 // j is Jitter multiplied by 10 this many times
  private var halfLogDet = 0.0 // Σ log L(i, i), summed in row order

  def size: Int = n
  def jitter: Double = j
  /** log|A + jI| = 2 Σ log L(i, i). */
  def logDet: Double = 2.0 * halfLogDet

  /** L's rows 0..n−1; row i may hold just its first i + 1 entries. */
  def factor: Array[Array[Double]] = java.util.Arrays.copyOf(l, n)

  /** Appends row n of A: `row(k)` = A(n, k) for k ≤ n. Throws
    * `ArithmeticException`, leaving the factor as it was, when no jitter
    * of the sequence factors the grown matrix. */
  def extend(row: Array[Double]): Unit = {
    require(row.length > n, "row shorter than the factor")
    if (n == a.length) {
      a = java.util.Arrays.copyOf(a, 2 * n)
      l = java.util.Arrays.copyOf(l, 2 * n)
    }
    a(n) = row
    // Row n at the jitter in use; on a failed pivot, rows 0..n again at
    // 10× the jitter, into new rows, so that a throw leaves L as it was.
    var rows = l
    var jt = j
    var tries = escalations
    var i = n
    while (i <= n) {
      val li = rowOf(i, rows, jt)
      if (li != null) { rows(i) = li; i += 1 }
      else {
        tries += 1
        if (tries == MaxTries) throw new ArithmeticException(s"cholesky failed after $MaxTries jitter escalations")
        jt *= 10
        rows = new Array[Array[Double]](l.length)
        i = 0
      }
    }
    if (rows eq l) halfLogDet += math.log(l(n)(n))
    else {
      l = rows
      j = jt
      escalations = tries
      halfLogDet = 0.0
      i = 0
      while (i <= n) { halfLogDet += math.log(l(i)(i)); i += 1 }
    }
    n += 1
  }

  /** Row i of L at jitter `jt` from A's row i and L's rows 0..i−1 in `ls`,
    * or null when its pivot is ≤ 0. L(i, k) for k < i is
    * (A(i, k) − Σ_{m<k} L(i, m)·L(k, m)) / L(k, k), and the pivot is
    * √(A(i, i) + jt − Σ_{m<i} L(i, m)²), each sum in increasing m. */
  private def rowOf(i: Int, ls: Array[Array[Double]], jt: Double): Array[Double] = {
    val ai = a(i)
    val li = new Array[Double](i + 1)
    var k = 0
    while (k <= i) {
      val lk = if (k == i) li else ls(k)
      var s = 0.0
      var m = 0
      while (m < k) { s += li(m) * lk(m); m += 1 }
      if (k == i) {
        val d = ai(i) + jt - s
        if (d <= 0.0) return null
        li(i) = math.sqrt(d)
      } else li(k) = (ai(k) - s) / lk(k)
      k += 1
    }
    li
  }
}

object GrowingCholesky {
  final val Jitter = 1e-10
  final val MaxTries = 8
}
