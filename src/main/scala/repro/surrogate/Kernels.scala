package repro.surrogate

import repro.space.ConfigSpace

/** Covariance function over unit-cube-encoded configuration vectors. */
trait Kernel extends Serializable {
  def apply(x: Array[Double], y: Array[Double]): Double
}

/** Matérn-5/2 over a subset of (numeric) dimensions with a shared
  * lengthscale: k(r) = (1 + √5·r + 5r²/3)·exp(−√5·r).
  */
final class Matern52(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)
  def apply(x: Array[Double], y: Array[Double]): Double = {
    if (dims.isEmpty) return 1.0
    var s = 0.0
    var i = 0
    while (i < dims.length) {
      val d = (x(dims(i)) - y(dims(i))) / lengthscale
      s += d * d
      i += 1
    }
    val r = math.sqrt(s)
    val a = math.sqrt(5.0) * r
    (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a)
  }
}

/** Squared-exponential (SE/RBF) over a subset of dimensions — used for the
  * data-size dimension in the mixed kernel (§3.3 Dynamic Workload Support).
  */
final class SqExp(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)
  def apply(x: Array[Double], y: Array[Double]): Double = {
    if (dims.isEmpty) return 1.0
    var s = 0.0
    var i = 0
    while (i < dims.length) {
      val d = (x(dims(i)) - y(dims(i))) / lengthscale
      s += d * d
      i += 1
    }
    math.exp(-0.5 * s)
  }
}

/** Hamming kernel over categorical dimensions:
  * k = exp(−(#mismatches)/ℓ). Equal categories ⇒ 1.
  */
final class Hamming(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)
  /** exp(−mis/ℓ) for every mismatch count 0..dims.length. */
  private[surrogate] val byMismatch: Array[Double] =
    Array.tabulate(dims.length + 1)(mis => math.exp(-mis / lengthscale))
  def apply(x: Array[Double], y: Array[Double]): Double = {
    var mis = 0
    var i = 0
    while (i < dims.length) {
      if (math.rint(x(dims(i))) != math.rint(y(dims(i)))) mis += 1
      i += 1
    }
    byMismatch(mis)
  }
}

/** Product of component kernels with an output variance amplitude —
  * the paper's mixed kernel: Matérn (numeric) × Hamming (categorical)
  * × SE (data size). Eq. 4.
  */
final class MixedKernel(components: Vector[Kernel], amplitude: Double = 1.0) extends Kernel {
  private val parts: Array[Kernel] = components.toArray
  def apply(x: Array[Double], y: Array[Double]): Double = {
    var k = amplitude
    var i = 0
    while (i < parts.length) { k *= parts(i)(x, y); i += 1 }
    k
  }
}

object MixedKernel {
  /** Mixed kernel for a config space, with an optional trailing data-size
    * dimension appended after the config dims (index = cs.dim).
    *
    * @param numLs  Matérn lengthscale on numeric dims
    * @param catLs  Hamming lengthscale on categorical dims
    * @param dsLs   SE lengthscale on the data-size dim
    */
  def forSpace(cs: ConfigSpace, withDataSize: Boolean,
               numLs: Double = 0.5, catLs: Double = 1.0, dsLs: Double = 0.5,
               amplitude: Double = 1.0): MixedKernel = {
    val numDims = (0 until cs.dim).filterNot(cs.isCat).toArray
    val catDims = (0 until cs.dim).filter(cs.isCat).toArray
    val comps = Vector.newBuilder[Kernel]
    comps += new Matern52(numDims, numLs)
    comps += new Hamming(catDims, catLs)
    if (withDataSize) comps += new SqExp(Array(cs.dim), dsLs)
    new MixedKernel(comps.result(), amplitude)
  }
}
