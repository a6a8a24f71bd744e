package repro.surrogate

import java.util.Arrays
import repro.space.ConfigSpace

/** Covariance function over unit-cube-encoded configuration vectors.
  *
  * Every kernel here is stationary: k(x, y) depends only on how x and y
  * differ, so k(x, x) is the same constant for every x. [[Gp]] relies on
  * this and reads k(x, x) once per fit.
  */
trait Kernel extends Serializable {
  /** This kernel bound to the training points `xs`, which it stores
    * column-major. */
  def rows(xs: Array[Array[Double]]): KernelRows
}

/** A kernel bound to `n` training points X: `row(x)(i)` is k(X(i), x). */
abstract class KernelRows(val n: Int) extends Serializable {
  /** Writes k(X(i), x) into `out(i)` for every i < m (m ≤ n). */
  def into(x: Array[Double], out: Array[Double], m: Int): Unit

  /** k(X, x). */
  final def row(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](n)
    into(x, out, n)
    out
  }
}

private object KernelRows {
  /** Column j holds `f(xs(i)(dims(j)))` for every training point i. */
  def columns(xs: Array[Array[Double]], dims: Array[Int], f: Double => Double): Array[Array[Double]] =
    Array.tabulate(dims.length)(j => Array.tabulate(xs.length)(i => f(xs(i)(dims(j)))))
}

/** A kernel over a subset of (numeric) dimensions with a shared
  * lengthscale ℓ, as a profile `ofSq` of the scaled squared distance
  * s = Σ ((xᵢ − yᵢ) / ℓ)², summed in dims order.
  */
sealed abstract class SqDistKernel(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)

  protected def ofSq(s: Double): Double

  def rows(xs: Array[Array[Double]]): KernelRows = {
    val cols = KernelRows.columns(xs, dims, identity)
    new KernelRows(xs.length) {
      def into(x: Array[Double], out: Array[Double], m: Int): Unit = {
        Arrays.fill(out, 0, m, 0.0)
        var j = 0
        while (j < cols.length) {
          val c = cols(j)
          val xj = x(dims(j))
          var i = 0
          while (i < m) {
            val d = (c(i) - xj) / lengthscale
            out(i) += d * d
            i += 1
          }
          j += 1
        }
        var i = 0
        while (i < m) { out(i) = ofSq(out(i)); i += 1 }
      }
    }
  }
}

/** Matérn-5/2: k(r) = (1 + √5·r + 5r²/3)·exp(−√5·r), r² = s. */
final class Matern52(dims: Array[Int], lengthscale: Double) extends SqDistKernel(dims, lengthscale) {
  protected def ofSq(s: Double): Double = {
    val r = math.sqrt(s)
    val a = math.sqrt(5.0) * r
    (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a)
  }
}

/** Squared-exponential (SE/RBF): k = exp(−s/2) — used for the data-size
  * dimension in the mixed kernel (§3.3 Dynamic Workload Support).
  */
final class SqExp(dims: Array[Int], lengthscale: Double) extends SqDistKernel(dims, lengthscale) {
  protected def ofSq(s: Double): Double = math.exp(-0.5 * s)
}

/** Hamming kernel over categorical dimensions:
  * k = exp(−(#mismatches)/ℓ). Equal categories ⇒ 1.
  */
final class Hamming(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)
  /** exp(−mis/ℓ) for every mismatch count 0..dims.length. */
  private[surrogate] val byMismatch: Array[Double] =
    Array.tabulate(dims.length + 1)(mis => math.exp(-mis / lengthscale))

  def rows(xs: Array[Array[Double]]): KernelRows = {
    val cols = KernelRows.columns(xs, dims, math.rint)
    new KernelRows(xs.length) {
      def into(x: Array[Double], out: Array[Double], m: Int): Unit = {
        Arrays.fill(out, 0, m, 0.0) // mismatch counts, exact in a double
        var j = 0
        while (j < cols.length) {
          val c = cols(j)
          val xj = math.rint(x(dims(j)))
          var i = 0
          while (i < m) { if (c(i) != xj) out(i) += 1.0; i += 1 }
          j += 1
        }
        var i = 0
        while (i < m) { out(i) = byMismatch(out(i).toInt); i += 1 }
      }
    }
  }
}

/** Product of component kernels with an output variance amplitude —
  * the paper's mixed kernel: Matérn (numeric) × Hamming (categorical)
  * × SE (data size). Eq. 4.
  */
final class MixedKernel(components: Vector[Kernel], amplitude: Double = 1.0) extends Kernel {
  private val parts: Array[Kernel] = components.toArray

  def rows(xs: Array[Array[Double]]): KernelRows = {
    val bound = parts.map(_.rows(xs))
    new KernelRows(xs.length) {
      def into(x: Array[Double], out: Array[Double], m: Int): Unit = {
        Arrays.fill(out, 0, m, amplitude)
        val part = new Array[Double](m)
        var p = 0
        while (p < bound.length) {
          bound(p).into(x, part, m)
          var i = 0
          while (i < m) { out(i) *= part(i); i += 1 }
          p += 1
        }
      }
    }
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
