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
  * when ℓ is a power of two, as every lengthscale the tuner uses is; so
  * does ℓ⁻² · Σ (xᵢ − yᵢ)², which lets the lengthscales of one family
  * share the raw distances ([[KernelRows.blocks]]).
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

  /** Whether `other` reads the same dims, so the two can share distances. */
  private[surrogate] def sameDims(other: MixedKernel): Boolean =
    Arrays.equals(numDims, other.numDims) && Arrays.equals(catDims, other.catDims) &&
      Arrays.equals(dsDims, other.dsDims)
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

/** Points stored column-major over a kernel's dims: `num(j)(p)` is point
  * p's coordinate `numDims(j)`, `cat(j)(p)` its coordinate `catDims(j)`
  * rounded to the category index, `ds(j)(p)` its coordinate `dsDims(j)`.
  * The columns may be longer than the points a reader uses.
  */
private[surrogate] final class Columns(val num: Array[Array[Double]], val cat: Array[Array[Double]],
                                       val ds: Array[Array[Double]]) extends Serializable {
  /** Writes point p, `x`, encoded over `k`'s dims. */
  def set(p: Int, x: Array[Double], k: MixedKernel): Unit = {
    var j = 0
    while (j < num.length) { num(j)(p) = x(k.numDims(j)); j += 1 }
    j = 0
    while (j < cat.length) { cat(j)(p) = math.rint(x(k.catDims(j))); j += 1 }
    j = 0
    while (j < ds.length) { ds(j)(p) = x(k.dsDims(j)); j += 1 }
  }

  /** The same points in new columns of `capacity`; this instance is unchanged. */
  def grown(capacity: Int): Columns = {
    def copy(cols: Array[Array[Double]]) = cols.map(Arrays.copyOf(_, capacity))
    new Columns(copy(num), copy(cat), copy(ds))
  }
}

private[surrogate] object Columns {
  /** Room for `capacity` points over `k`'s dims. */
  def empty(k: MixedKernel, capacity: Int): Columns =
    new Columns(KernelRows.zeros(k.numDims.length, capacity), KernelRows.zeros(k.catDims.length, capacity),
      KernelRows.zeros(k.dsDims.length, capacity))

  /** The points of the block `c` over `k`'s dims: the numeric and data-size
    * columns are `c`'s own, each categorical column is rounded once. */
  def of(c: Block, k: MixedKernel): Columns = {
    val cat = KernelRows.zeros(k.catDims.length, c.m)
    var j = 0
    while (j < cat.length) {
      val cj = c.cols(k.catDims(j))
      val o = cat(j)
      var q = 0
      while (q < c.m) { o(q) = math.rint(cj(q)); q += 1 }
      j += 1
    }
    new Columns(k.numDims.map(c.cols(_)), cat, k.dsDims.map(c.cols(_)))
  }
}

/** A [[MixedKernel]] bound to the first `n` points of `x`, the training
  * points X. On a [[Block]] C of m points it gives the n×m block k(X, C) as
  * n rows of m, with the block's points on the inner loop; the block of one
  * point is the row k(X, x). Every inner loop indexes all its arrays by the
  * same point index, the form the JIT vectorises.
  */
final class KernelRows private[surrogate] (private[surrogate] val k: MixedKernel,
                                           private[surrogate] val x: Columns,
                                           val n: Int) extends Serializable {
  /** k(X, C): row i holds k(X(i), C(j)) for every j < c.m. */
  def block(c: Block): Array[Array[Double]] = KernelRows.blocks(Array(this), c)(0)

  /** Whether `o` is bound to the same training points. */
  private[surrogate] def sharesPoints(o: KernelRows): Boolean = (x eq o.x) && n == o.n
}

private[surrogate] object KernelRows {
  /** An n×m matrix of zeros as n rows, without the reflective class-tag
    * allocation `Array.ofDim` makes for the outer array. */
  def zeros(n: Int, m: Int): Array[Array[Double]] = {
    val a = new Array[Array[Double]](n)
    var i = 0
    while (i < n) { a(i) = new Array[Double](m); i += 1 }
    a
  }

  /** k(X, C) for each of `rs`, as [[KernelRows.block]] gives it. All of
    * `rs` are bound to the same points ([[KernelRows.sharesPoints]]) with
    * kernels over the same dims, as the kernels of one [[GpState]] are, so
    * the raw distances from X to C are computed once for all of them. */
  def blocks(rs: Array[KernelRows], c: Block): Array[Array[Array[Double]]] = {
    val r0 = rs(0)
    val outs = rs.map(r => zeros(r.n, c.m))
    val ks = rs.map(_.k)
    val y = Columns.of(c, r0.k)
    val d = new Distances(c.m)
    val row = new Array[Array[Double]](rs.length)
    var i = 0
    while (i < r0.n) {
      var r = 0
      while (r < rs.length) { row(r) = outs(r)(i); r += 1 }
      d.rowInto(ks, r0.x, i, y, row)
      i += 1
    }
    outs
  }

  /** Writes s = Σ ((x(j)(i) − y(j)(q)) · inv)² over the columns j, summed in
    * column order, into `out(q)` for every q < m. */
  def sqDist(x: Array[Array[Double]], i: Int, y: Array[Array[Double]], m: Int, inv: Double,
             out: Array[Double]): Unit = {
    Arrays.fill(out, 0, m, 0.0)
    var j = 0
    while (j < x.length) {
      val xi = x(j)(i)
      val yj = y(j)
      var q = 0
      while (q < m) {
        val t = (xi - yj(q)) * inv
        out(q) += t * t
        q += 1
      }
      j += 1
    }
  }

  /** Whether v is a power of two, so that scaling by it is exact. */
  def powerOfTwo(v: Double): Boolean = v == java.lang.Math.scalb(1.0, java.lang.Math.getExponent(v))
}

/** Scratch rows of m for the raw distances from one training point to m
  * points, shared by every kernel of a family. */
private[surrogate] final class Distances(m: Int) {
  private val num = new Array[Double](m) // Σ (x − y)² over the numeric dims
  private val mis = new Array[Double](m) // mismatch counts, exact in a double
  private val ds = new Array[Double](m)  // Σ (x − y)² over the data-size dims
  private val scaled = new Array[Double](m)

  /** Writes k(x(i), y(q)) for every q < m into `outs(r)(q)` for each kernel
    * `ks(r)`, all over the dims of `x` and `y`. Each entry is (Matérn ×
    * Hamming) × SE, multiplied in that order. */
  def rowInto(ks: Array[MixedKernel], x: Columns, i: Int, y: Columns, outs: Array[Array[Double]]): Unit = {
    KernelRows.sqDist(x.num, i, y.num, m, 1.0, num)
    Arrays.fill(mis, 0.0)
    var j = 0
    while (j < x.cat.length) {
      val xi = x.cat(j)(i)
      val yj = y.cat(j)
      // Both sides are integers, so this adds exactly 1 on a mismatch
      // and 0 otherwise, without a branch.
      var q = 0
      while (q < m) { mis(q) += math.min(1.0, math.abs(yj(q) - xi)); q += 1 }
      j += 1
    }
    if (x.ds.length > 0) KernelRows.sqDist(x.ds, i, y.ds, m, 1.0, ds)
    var r = 0
    while (r < ks.length) {
      val k = ks(r)
      val o = outs(r)
      scale(num, k.invNumLs, x.num, i, y.num, o)
      var q = 0
      while (q < m) { // Matérn-5/2: (1 + √5·r + 5r²/3)·exp(−√5·r), r² = s
        val s = o(q)
        val a = math.sqrt(5.0) * math.sqrt(s)
        o(q) = (1.0 + a + (5.0 / 3.0) * s) * math.exp(-a)
        q += 1
      }
      val byMismatch = k.byMismatch
      q = 0
      while (q < m) { o(q) *= byMismatch(mis(q).toInt); q += 1 }
      if (x.ds.length > 0) { // over no dims SE is ×1, so it is skipped
        scale(ds, k.invDsLs, x.ds, i, y.ds, scaled)
        // A pool has one data size, so exp runs once per run of equal s.
        var s = Double.NaN
        var v = 0.0
        q = 0
        while (q < m) { // SE: exp(−s/2)
          if (scaled(q) != s) { s = scaled(q); v = math.exp(-0.5 * s) }
          o(q) *= v
          q += 1
        }
      }
      r += 1
    }
  }

  /** Writes the scaled squared distances Σ ((x − y) · inv)² into `out`: the
    * raw ones times inv² when inv is a power of two (the same bits), else
    * summed anew. */
  private def scale(raw: Array[Double], inv: Double, x: Array[Array[Double]], i: Int,
                    y: Array[Array[Double]], out: Array[Double]): Unit =
    if (KernelRows.powerOfTwo(inv)) {
      val inv2 = inv * inv
      var q = 0
      while (q < m) { out(q) = raw(q) * inv2; q += 1 }
    } else KernelRows.sqDist(x, i, y, m, inv, out)
}
