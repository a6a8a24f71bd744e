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

/** `m` points, stored column-major: `cols(d)(j)` is coordinate d of
  * point j, so one coordinate of all m points is one array and a kernel
  * can run over the points in its inner loop.
  */
final class Block private (val m: Int, private[surrogate] val cols: Array[Array[Double]]) extends Serializable {
  /** Point j's coordinates. */
  def point(j: Int): Array[Double] = cols.map(_(j))
}

object Block {
  /** The block of the points `xs`, in order; all have the same length. */
  def of(xs: Array[Array[Double]]): Block = {
    val m = xs.length
    val dim = if (m == 0) 0 else xs(0).length
    require(xs.forall(_.length == dim), "points of different dimension")
    val cols = KernelRows.zeros(dim, m)
    var j = 0
    while (j < m) {
      val x = xs(j)
      var d = 0
      while (d < dim) { cols(d)(j) = x(d); d += 1 }
      j += 1
    }
    new Block(m, cols)
  }
}

/** A kernel bound to `n` training points X. On a [[Block]] C of m points it
  * gives the n×m block k(X, C) as n rows of m, with the block's points on
  * the inner loop; the block of one point is the row k(X, x). Every inner
  * loop indexes all its arrays by the same point index, the form the JIT
  * vectorises.
  */
abstract class KernelRows(val n: Int) extends Serializable {
  /** Writes k(X(i), C(j)) into `out(i)(j)` for every i < n and j < c.m;
    * entries of a row from c.m on are left as they are. */
  def into(c: Block, out: Array[Array[Double]]): Unit

  /** k(X, C), as [[into]] writes it. */
  final def block(c: Block): Array[Array[Double]] = {
    val out = KernelRows.zeros(n, c.m)
    into(c, out)
    out
  }
}

private object KernelRows {
  /** An n×m matrix of zeros as n rows, without the reflective class-tag
    * allocation `Array.ofDim` makes for the outer array. */
  def zeros(n: Int, m: Int): Array[Array[Double]] = {
    val a = new Array[Array[Double]](n)
    var i = 0
    while (i < n) { a(i) = new Array[Double](m); i += 1 }
    a
  }

  /** Column j holds `f(xs(i)(dims(j)))` for every training point i. */
  def columns(xs: Array[Array[Double]], dims: Array[Int], f: Double => Double): Array[Array[Double]] =
    Array.tabulate(dims.length)(j => Array.tabulate(xs.length)(i => f(xs(i)(dims(j)))))
}

/** A kernel over a subset of (numeric) dimensions with a shared
  * lengthscale ℓ, as a profile `ofSq` of the scaled squared distance
  * s = Σ ((xᵢ − yᵢ) · ℓ⁻¹)², summed in dims order. The product by ℓ⁻¹
  * equals the quotient by ℓ to the bit when ℓ is a power of two, as every
  * lengthscale the tuner uses is.
  */
sealed abstract class SqDistKernel(dims: Array[Int], lengthscale: Double) extends Kernel {
  require(lengthscale > 0)
  private val invLs = 1.0 / lengthscale

  protected def ofSq(s: Double): Double

  def rows(xs: Array[Array[Double]]): KernelRows = {
    val cols = KernelRows.columns(xs, dims, identity)
    new KernelRows(xs.length) {
      def into(c: Block, out: Array[Array[Double]]): Unit = {
        val m = c.m
        val inv = invLs
        var i = 0
        while (i < n) {
          val o = out(i)
          Arrays.fill(o, 0, m, 0.0)
          var j = 0
          while (j < cols.length) {
            val xi = cols(j)(i)
            val cj = c.cols(dims(j))
            var q = 0
            while (q < m) {
              val d = (xi - cj(q)) * inv
              o(q) += d * d
              q += 1
            }
            j += 1
          }
          // Neighbouring entries often share s (every candidate of a
          // suggestion has the same data size), so the profile is
          // evaluated once per run of equal values.
          var s = Double.NaN
          var k = 0.0
          var q = 0
          while (q < m) {
            if (o(q) != s) { s = o(q); k = ofSq(s) }
            o(q) = k
            q += 1
          }
          i += 1
        }
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
      def into(c: Block, out: Array[Array[Double]]): Unit = {
        val m = c.m
        val cc = KernelRows.zeros(dims.length, m) // each column rounded once
        var j = 0
        while (j < dims.length) {
          val cj = c.cols(dims(j))
          var q = 0
          while (q < m) { cc(j)(q) = math.rint(cj(q)); q += 1 }
          j += 1
        }
        var i = 0
        while (i < n) {
          val o = out(i)
          Arrays.fill(o, 0, m, 0.0) // mismatch counts, exact in a double
          var j = 0
          while (j < cols.length) {
            val xi = cols(j)(i)
            val cj = cc(j)
            var q = 0
            // Both sides are integers, so this adds exactly 1 on a
            // mismatch and 0 otherwise, without a branch.
            while (q < m) { o(q) += math.min(1.0, math.abs(cj(q) - xi)); q += 1 }
            j += 1
          }
          var q = 0
          while (q < m) { o(q) = byMismatch(o(q).toInt); q += 1 }
          i += 1
        }
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
      def into(c: Block, out: Array[Array[Double]]): Unit = {
        val m = c.m
        (0 until n).foreach(i => Arrays.fill(out(i), 0, m, amplitude))
        val part = KernelRows.zeros(n, m)
        var p = 0
        while (p < bound.length) {
          bound(p).into(c, part)
          var i = 0
          while (i < n) {
            val o = out(i)
            val pi = part(i)
            var q = 0
            while (q < m) { o(q) *= pi(q); q += 1 }
            i += 1
          }
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
