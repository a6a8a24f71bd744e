package repro.linalg

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class LinSpec extends AnyFunSuite {

  /** L·Lᵀ for a factor whose row i holds just its first i + 1 entries. */
  private def matmulT(l: Array[Array[Double]]): Array[Array[Double]] = {
    val n = l.length
    Array.tabulate(n, n)((i, j) => (0 to math.min(i, j)).map(k => l(i)(k) * l(j)(k)).sum)
  }

  /** `a`'s rows fed to a fresh [[GrowingCholesky]] in order. */
  private def grown(a: Array[Array[Double]]): GrowingCholesky = {
    val g = new GrowingCholesky
    a.foreach(g.extend)
    g
  }

  private def cholesky(a: Array[Array[Double]]): Array[Array[Double]] = grown(a).factor

  private def randomSpd(n: Int, seed: Int): Array[Array[Double]] = {
    val r = new Random(seed)
    val a = Array.fill(n, n)(r.nextGaussian())
    val m = Array.tabulate(n, n)((i, j) => (0 until n).map(k => a(i)(k) * a(j)(k)).sum)
    (0 until n).foreach(i => m(i)(i) += n) // well-conditioned
    m
  }

  test("cholesky of identity is identity") {
    val l = cholesky(Array.tabulate(4, 4)((i, j) => if (i == j) 1.0 else 0.0))
    // Default jitter 1e-10 shifts the diagonal by ~5e-11.
    (0 until 4).foreach(i => (0 to i).foreach(j =>
      assert(math.abs(l(i)(j) - (if (i == j) 1.0 else 0.0)) < 1e-9)))
  }

  test("cholesky reconstructs the input: L·Lᵀ = A") {
    val a = randomSpd(8, 1)
    val rec = matmulT(cholesky(a))
    for (i <- 0 until 8; j <- 0 until 8)
      assert(math.abs(rec(i)(j) - a(i)(j)) < 1e-6, s"($i,$j)")
  }

  test("cholesky of known 2x2") {
    val l = cholesky(Array(Array(4.0, 2.0), Array(2.0, 3.0)))
    assert(math.abs(l(0)(0) - 2.0) < 1e-9)
    assert(math.abs(l(1)(0) - 1.0) < 1e-9)
    assert(math.abs(l(1)(1) - math.sqrt(2.0)) < 1e-9)
  }

  test("choleskySolve solves A x = b") {
    val a = randomSpd(6, 2)
    val r = new Random(3)
    val x = Array.fill(6)(r.nextGaussian())
    val b = Array.tabulate(6)(i => (0 until 6).map(j => a(i)(j) * x(j)).sum)
    val got = Lin.choleskySolve(cholesky(a), b)
    (0 until 6).foreach(i => assert(math.abs(got(i) - x(i)) < 1e-6))
  }

  test("solveLower then solveUpperT invert the triangular factors") {
    val l = cholesky(randomSpd(5, 4))
    val b = Array.fill(5)(1.0)
    val y = Lin.solveLower(l, b)
    // L y = b
    (0 until 5).foreach { i =>
      val s = (0 to i).map(k => l(i)(k) * y(k)).sum
      assert(math.abs(s - 1.0) < 1e-9)
    }
  }

  test("logDet matches known determinant") {
    val a = Array(Array(4.0, 0.0), Array(0.0, 9.0))
    assert(math.abs(grown(a).logDet - math.log(36.0)) < 1e-9)
  }

  test("jitter escalation recovers a singular matrix") {
    val a = Array(Array(1.0, 1.0), Array(1.0, 1.0)) // rank 1
    val g = grown(a)
    assert(g.jitter > 0)
    assert(!g.factor(1)(1).isNaN)
  }

  test("jitter escalation stops after MaxTries jitters, leaving the factor as it was") {
    val last = (1 until GrowingCholesky.MaxTries).foldLeft(GrowingCholesky.Jitter)((j, _) => j * 10)
    // A(0, 0) = −last/2 factors only at the last jitter of the sequence.
    val g = grown(Array(Array(-0.5 * last)))
    assert(g.size == 1 && g.jitter == last)
    assertThrows[ArithmeticException](g.extend(Array(0.0, -last)))
    assert(g.size == 1 && g.jitter == last)
    assertThrows[ArithmeticException](grown(Array(Array(-2.0 * last))))
  }

  test("dot product") {
    assert(Lin.dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)) == 32.0)
  }

  test("solveLowerBlock solves every column as solveLower does, to the bit") {
    val l = cholesky(randomSpd(7, 5))
    val r = new Random(6)
    for (m <- Seq(1, 3, 40)) {
      val b = Array.fill(7, m)(r.nextGaussian())
      val v = b.map(_.clone())
      Lin.solveLowerBlock(l, v)
      (0 until m).foreach { j =>
        val col = Lin.solveLower(l, b.map(_(j)))
        (0 until 7).foreach { i =>
          assert(java.lang.Double.doubleToRawLongBits(v(i)(j)) ==
            java.lang.Double.doubleToRawLongBits(col(i)), s"m=$m j=$j i=$i")
        }
      }
    }
  }
}
