package repro.surrogate

import repro.space.ConfigSpace

/** Per-pair reference for the kernels in `Kernels.scala`: k(x, y) for one
  * pair, built from the same dims and lengthscales. Production code only
  * evaluates kernels through bound rows over a block of points; the tests
  * check those blocks against this arithmetic, which scales by ℓ⁻¹ and sums
  * and multiplies in the blocks' order, so the two agree to the bit.
  */
object KernelRef {
  type K = (Array[Double], Array[Double]) => Double

  /** Σ ((x(d) − y(d)) · ℓ⁻¹)² in dims order. */
  private def sqDist(dims: Array[Int], ls: Double, x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    dims.foreach { d => val t = (x(d) - y(d)) * (1.0 / ls); s += t * t }
    s
  }

  def matern52(dims: Array[Int], ls: Double): K = (x, y) => {
    val s = sqDist(dims, ls, x, y)
    val a = math.sqrt(5.0) * math.sqrt(s)
    (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a)
  }

  def sqExp(dims: Array[Int], ls: Double): K = (x, y) => math.exp(-0.5 * sqDist(dims, ls, x, y))

  def hamming(dims: Array[Int], ls: Double): K = (x, y) => {
    val mis = dims.count(d => math.rint(x(d)) != math.rint(y(d)))
    math.exp(-mis / ls)
  }

  /** amplitude · Π parts, multiplied in order. */
  def mixed(parts: Seq[K], amplitude: Double = 1.0): K = (x, y) =>
    parts.foldLeft(amplitude)((k, p) => k * p(x, y))

  /** The reference for `MixedKernel.forSpace` with the same arguments. */
  def forSpace(cs: ConfigSpace, withDataSize: Boolean,
               numLs: Double, catLs: Double, dsLs: Double): K = {
    val numDims = (0 until cs.dim).filterNot(cs.isCat).toArray
    val catDims = (0 until cs.dim).filter(cs.isCat).toArray
    mixed(Seq(matern52(numDims, numLs), hamming(catDims, catLs)) ++
      (if (withDataSize) Seq(sqExp(Array(cs.dim), dsLs)) else Nil))
  }
}
