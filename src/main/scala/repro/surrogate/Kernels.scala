package repro.surrogate

import java.util.Arrays
import repro.space.ConfigSpace

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

/** The paper's mixed kernel (§3.3, Eq. 4) over unit-cube-encoded
  * configuration vectors: Matérn-5/2 with lengthscale `numLs` on the
  * numeric dims × Hamming, exp(−#mismatches/`catLs`), on the categorical
  * dims × squared-exponential with lengthscale `dsLs` on the data-size dim.
  * A factor over no dims is 1.
  *
  * Every factor is exactly 1 at zero distance, so k(x, x) = 1 to the bit
  * for every x; [[Gp]] relies on this. The Matérn and SE factors are
  * profiles of the scaled squared distance s = Σ ((xᵢ − yᵢ) · ℓ⁻¹)², summed
  * in dims order. The product by ℓ⁻¹ equals the quotient by ℓ to the bit
  * when ℓ is a power of two, as every lengthscale the tuner uses is.
  */
final class MixedKernel(private[surrogate] val numDims: Array[Int],
                        private[surrogate] val catDims: Array[Int],
                        private[surrogate] val dsDims: Array[Int],
                        numLs: Double, catLs: Double, dsLs: Double) extends Serializable {
  require(numLs > 0 && catLs > 0 && dsLs > 0)
  private[surrogate] val invNumLs = 1.0 / numLs
  private[surrogate] val invDsLs = 1.0 / dsLs
  /** exp(−mis/ℓ) for every mismatch count 0..catDims.length. */
  private[surrogate] val byMismatch: Array[Double] =
    Array.tabulate(catDims.length + 1)(mis => math.exp(-mis / catLs))

  /** This kernel bound to the training points `xs`. */
  def rows(xs: Array[Array[Double]]): KernelRows = new KernelRows(this, xs)
}

object MixedKernel {
  /** The mixed kernel for a config space, with an optional trailing
    * data-size dimension appended after the config dims (index = cs.dim).
    *
    * @param numLs  Matérn lengthscale on numeric dims
    * @param catLs  Hamming lengthscale on categorical dims
    * @param dsLs   SE lengthscale on the data-size dim
    */
  def forSpace(cs: ConfigSpace, withDataSize: Boolean,
               numLs: Double, catLs: Double, dsLs: Double): MixedKernel =
    new MixedKernel((0 until cs.dim).filterNot(cs.isCat).toArray, (0 until cs.dim).filter(cs.isCat).toArray,
      if (withDataSize) Array(cs.dim) else Array.empty[Int], numLs, catLs, dsLs)

  /** The lengthscale family every GP fits its grid over: for a multiplier
    * ℓ, Matérn 0.5ℓ, Hamming ℓ and SE 0.5ℓ. */
  def family(cs: ConfigSpace, withDataSize: Boolean): Double => MixedKernel =
    ls => forSpace(cs, withDataSize, numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls)
}

/** A [[MixedKernel]] bound to `n` training points X, stored column-major.
  * On a [[Block]] C of m points it gives the n×m block k(X, C) as n rows of
  * m, with the block's points on the inner loop; the block of one point is
  * the row k(X, x). Every inner loop indexes all its arrays by the same
  * point index, the form the JIT vectorises.
  */
final class KernelRows private[surrogate] (k: MixedKernel, xs: Array[Array[Double]]) extends Serializable {
  val n: Int = xs.length
  private val num = KernelRows.columns(xs, k.numDims, identity)
  private val cat = KernelRows.columns(xs, k.catDims, math.rint)
  private val ds = KernelRows.columns(xs, k.dsDims, identity)

  /** Writes k(X(i), C(j)) into `out(i)(j)` for every i < n and j < c.m;
    * entries of a row from c.m on are left as they are. Each entry is
    * (Matérn × Hamming) × SE, multiplied in that order. */
  def into(c: Block, out: Array[Array[Double]]): Unit = {
    val m = c.m
    val scratch = new Array[Double](m)
    val cc = KernelRows.zeros(cat.length, m) // each categorical column rounded once
    var j = 0
    while (j < cat.length) {
      val cj = c.cols(k.catDims(j))
      var q = 0
      while (q < m) { cc(j)(q) = math.rint(cj(q)); q += 1 }
      j += 1
    }
    val byMismatch = k.byMismatch
    var i = 0
    while (i < n) {
      val o = out(i)
      KernelRows.sqDist(num, k.numDims, k.invNumLs, i, c, o)
      var q = 0
      while (q < m) { // Matérn-5/2: (1 + √5·r + 5r²/3)·exp(−√5·r), r² = s
        val s = o(q)
        val a = math.sqrt(5.0) * math.sqrt(s)
        o(q) = (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a)
        q += 1
      }
      Arrays.fill(scratch, 0.0) // mismatch counts, exact in a double
      j = 0
      while (j < cat.length) {
        val xi = cat(j)(i)
        val cj = cc(j)
        // Both sides are integers, so this adds exactly 1 on a mismatch
        // and 0 otherwise, without a branch.
        q = 0
        while (q < m) { scratch(q) += math.min(1.0, math.abs(cj(q) - xi)); q += 1 }
        j += 1
      }
      q = 0
      while (q < m) { o(q) *= byMismatch(scratch(q).toInt); q += 1 }
      if (ds.length > 0) { // over no dims SE is ×1, so it is skipped
        KernelRows.sqDist(ds, k.dsDims, k.invDsLs, i, c, scratch)
        // A pool has one data size, so exp runs once per run of equal s.
        var s = Double.NaN
        var v = 0.0
        q = 0
        while (q < m) { // SE: exp(−s/2)
          if (scratch(q) != s) { s = scratch(q); v = math.exp(-0.5 * s) }
          o(q) *= v
          q += 1
        }
      }
      i += 1
    }
  }

  /** k(X, C), as [[into]] writes it. */
  def block(c: Block): Array[Array[Double]] = {
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

  /** Writes s = Σ ((x(i) − C(j)) · inv)² over `dims`, summed in dims order,
    * into `out(j)` for every j < c.m; `x` holds the training points'
    * columns of `dims`. */
  def sqDist(x: Array[Array[Double]], dims: Array[Int], inv: Double, i: Int,
             c: Block, out: Array[Double]): Unit = {
    val m = c.m
    Arrays.fill(out, 0, m, 0.0)
    var j = 0
    while (j < dims.length) {
      val xi = x(j)(i)
      val cj = c.cols(dims(j))
      var q = 0
      while (q < m) {
        val d = (xi - cj(q)) * inv
        out(q) += d * d
        q += 1
      }
      j += 1
    }
  }
}
