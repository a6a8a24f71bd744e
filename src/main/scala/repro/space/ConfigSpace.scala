package repro.space

import scala.util.Random

/** A single tunable parameter in the Spark configuration space. */
sealed trait Param extends Serializable {
  /** Fully qualified Spark parameter name, e.g. `spark.executor.memory`. */
  def name: String
}

/** Integer-valued parameter on [lo, hi]; `log=true` searches in log scale. */
final case class IntParam(name: String, lo: Long, hi: Long, log: Boolean = false) extends Param {
  require(lo < hi, s"$name: empty range")
}

/** Real-valued parameter on [lo, hi]; `log=true` searches in log scale. */
final case class DoubleParam(name: String, lo: Double, hi: Double, log: Boolean = false) extends Param {
  require(lo < hi, s"$name: empty range")
}

/** Categorical parameter over a fixed set of choices (booleans included). */
final case class CatParam(name: String, choices: Vector[String]) extends Param {
  require(choices.nonEmpty, s"$name: no choices")
}

/** A concrete configuration: one raw value per parameter, in space order.
  *
  * Numeric parameters store their actual value; categorical parameters
  * store the choice index as a Double. Configurations are plain value
  * objects — all semantics (encoding, clipping, lookup) live in
  * [[ConfigSpace]].
  */
final case class Config(values: Vector[Double]) {
  def apply(i: Int): Double = values(i)
  def updated(i: Int, v: Double): Config = Config(values.updated(i, v))
}

/** The Cartesian search space Λ = Λ¹ × … × Λᴺ over Spark parameters.
  *
  * Provides the unit-cube encoding used by all surrogate models: numeric
  * dimensions map to [0,1] (optionally log-scaled), categorical dimensions
  * keep their index (kernels treat them through Hamming distance).
  */
final class ConfigSpace(val params: Vector[Param]) extends Serializable {
  import ConfigSpace._
  val dim: Int = params.size
  private val index: Map[String, Int] = params.map(_.name).zipWithIndex.toMap

  // Per-dimension encoding constants, read by the hot encode/decode paths.
  private val kind: Array[Int] = params.map {
    case _: IntParam    => IntKind
    case _: DoubleParam => DoubleKind
    case _: CatParam    => CatKind
  }.toArray
  private val isLog: Array[Boolean] = params.map {
    case p: IntParam    => p.log
    case p: DoubleParam => p.log
    case _: CatParam    => false
  }.toArray
  private val lo: Array[Double] = params.map {
    case p: IntParam    => p.lo.toDouble
    case p: DoubleParam => p.lo
    case _: CatParam    => 0.0
  }.toArray
  private val hi: Array[Double] = params.map {
    case p: IntParam    => p.hi.toDouble
    case p: DoubleParam => p.hi
    case p: CatParam    => (p.choices.size - 1).toDouble
  }.toArray
  private val logLo: Array[Double] = lo.map(math.log)
  private val logSpan: Array[Double] = Array.tabulate(dim)(i => math.log(hi(i)) - math.log(lo(i)))
  private val card: Array[Int] = params.map {
    case CatParam(_, cs) => cs.size
    case _               => 1
  }.toArray

  /** Index of a parameter by its Spark name; throws if absent. */
  def indexOf(name: String): Int =
    index.getOrElse(name, throw new NoSuchElementException(s"unknown parameter: $name"))

  def contains(name: String): Boolean = index.contains(name)

  /** True if dimension `i` is categorical (Hamming-kernel dimension). */
  def isCat(i: Int): Boolean = kind(i) == CatKind

  /** Number of categories of categorical dim `i` (1 for numeric dims). */
  def cardinality(i: Int): Int = card(i)

  /** Raw value of `name` in `c`. */
  def value(c: Config, name: String): Double = c(indexOf(name))

  /** Categorical choice string of `name` in `c`. */
  def choice(c: Config, name: String): String = params(indexOf(name)) match {
    case CatParam(_, cs) => cs(c(indexOf(name)).toInt.min(cs.size - 1).max(0))
    case p               => throw new IllegalArgumentException(s"${p.name} is not categorical")
  }

  /** Copy of `c` with `name` set to raw value `v` (clipped to its range). */
  def withValue(c: Config, name: String, v: Double): Config = {
    val i = indexOf(name)
    c.updated(i, clipDim(i, v))
  }

  /** The legality rule of dimension `i`: snap integers and category
    * indices, then clamp into range. */
  private def clipDim(i: Int, v: Double): Double =
    (if (kind(i) == DoubleKind) v else math.rint(v)).max(lo(i)).min(hi(i))

  /** Clip every dimension of `c` into its legal range (ints snapped). */
  def clip(c: Config): Config =
    Config(Vector.tabulate(dim)(i => clipDim(i, c(i))))

  /** Encode to the unit cube: numeric → [0,1] (log-aware), cat → index. */
  def toUnit(c: Config): Array[Double] = {
    val out = new Array[Double](dim)
    var i = 0
    while (i < dim) { out(i) = encode(i, c(i)); i += 1 }
    out
  }

  /** The unit row of raw values `r`, followed by `extra`. */
  private def unitRow(r: Array[Double], extra: Array[Double]): Array[Double] = {
    val out = new Array[Double](dim + extra.length)
    var i = 0
    while (i < dim) { out(i) = encode(i, r(i)); i += 1 }
    System.arraycopy(extra, 0, out, dim, extra.length)
    out
  }

  /** Decode a unit-cube point back to a legal raw configuration. */
  def fromUnit(u: Array[Double]): Config = {
    require(u.length == dim, s"expected $dim dims, got ${u.length}")
    Config(Vector.tabulate(dim)(i => decode(i, u(i))))
  }

  /** Legal raw value of dimension `i` at unit coordinate `u`. */
  private def decode(i: Int, u: Double): Double =
    if (kind(i) != CatKind) clipDim(i, rawOf(i, u))
    // A unit draw in [0,1) selects a category uniformly.
    else clipDim(i, if (u >= 0.0 && u < 1.0) math.floor(u * card(i)) else u)

  /** Unit coordinate of raw value `v` of dimension `i`; a category's
    * index is its own coordinate. */
  private def encode(i: Int, v: Double): Double =
    if (kind(i) == CatKind) v else unitOf(i, v)

  private def unitOf(i: Int, v: Double): Double =
    if (isLog(i)) (math.log(v.max(lo(i))) - logLo(i)) / logSpan(i)
    else ((v - lo(i)) / (hi(i) - lo(i))).max(0.0).min(1.0)

  private def rawOf(i: Int, u: Double): Double = {
    val uc = u.max(0.0).min(1.0)
    if (isLog(i)) math.exp(logLo(i) + uc * logSpan(i))
    else lo(i) + uc * (hi(i) - lo(i))
  }

  /** Uniform random configuration. */
  def sampleRandom(rng: Random): Config =
    drawPool(Nil, Set.empty, rng, nSub = 0, nLoc = 0, nGlob = 1).config(0)

  /** `n` uniform random configurations. */
  def sampleRandom(rng: Random, n: Int): Vector[Config] =
    Vector.fill(n)(sampleRandom(rng))

  /** `n` low-discrepancy configurations (§3.3 initial design). */
  def sampleLowDiscrepancy(n: Int, seed: Long = 0L): Vector[Config] =
    LowDiscrepancy.halton(n, dim, seed).map(fromUnit)

  /** Perturb only the dims in `free`, pinning the rest to `anchor` —
    * TuRBO-style local exploration inside the sub-space. `anchor` must be
    * legal (`clip(anchor) == anchor`). */
  def perturbInSubspace(anchor: Config, free: Set[Int], rng: Random, sigma: Double = 0.15): Config =
    drawPool(Seq(anchor), free, rng, nSub = 0, nLoc = 1, nGlob = 0, sigma).config(0)

  /** Restrict sampling to a sub-space: dims in `free` vary, the rest are
    * pinned to `anchor`'s values (Eq. 5 sub-space with an anchor point).
    * `anchor` must be legal. */
  def sampleInSubspace(anchor: Config, free: Set[Int], rng: Random): Config =
    drawPool(Seq(anchor), free, rng, nSub = 1, nLoc = 0, nGlob = 0).config(0)

  /** A BO candidate pool (Algorithm 2, line 6) drawn in one pass, as three
    * streams in this order:
    *  - `nSub` uniform draws in the sub-space: each dim of `free` is drawn
    *    anew, by `nextInt(card)` if categorical and `nextDouble` if numeric;
    *  - `nLoc` local moves: each free numeric dim moves by
    *    `sigma`·`nextGaussian` in the unit cube, each free categorical dim
    *    is redrawn (`nextInt(card)`) when `nextDouble <` [[ConfigSpace.PCat]];
    *  - `nGlob` uniform draws over the whole space: `dim` calls to
    *    `nextDouble`, in dims order.
    * Draw j of the first two streams pins its other dims to
    * `anchors(j % anchors.size)`, which must be legal, and takes its free
    * dims from `rng` in `free`'s iteration order.
    *
    * A draw is the decoded (`fromUnit`) configuration of its unit point,
    * and its unit row is `toUnit` of that followed by `extra`. The pinned
    * values and their encodings are worked out once per anchor, so each
    * draw decodes and encodes only its free dims. A pinned numeric dim is
    * the decoded anchor encoding, which can differ from the anchor's raw
    * value in the last bits. */
  def drawPool(anchors: Seq[Config], free: Set[Int], rng: Random,
               nSub: Int, nLoc: Int, nGlob: Int, sigma: Double = 0.15,
               extra: Array[Double] = Array.emptyDoubleArray): CandidatePool = {
    require(anchors.nonEmpty || nSub + nLoc == 0, "anchored draws need an anchor")
    val freeDims = {
      val b = Array.newBuilder[Int]
      free.foreach(b += _)
      b.result()
    }
    // Per anchor: its unit point (where local moves start), the pinned raw
    // values and their unit row with `extra` already in place. Every
    // anchored draw overwrites the free numeric dims, so they stay undecoded.
    val isFree = new Array[Boolean](dim)
    freeDims.foreach(isFree(_) = true)
    val anchorUnit = anchors.map(toUnit).toArray
    val pinnedRaw = anchorUnit.map { u =>
      val r = new Array[Double](dim)
      var i = 0
      while (i < dim) { r(i) = if (isCat(i) || isFree(i)) u(i) else decode(i, u(i)); i += 1 }
      r
    }
    val pinnedUnit = pinnedRaw.map(unitRow(_, extra))
    val n = nSub + nLoc + nGlob
    val raw = new Array[Array[Double]](n)
    val unit = new Array[Array[Double]](n)
    var j = 0
    while (j < nSub + nLoc) {
      val local = j >= nSub
      val a = (if (local) j - nSub else j) % anchorUnit.length
      val r = pinnedRaw(a).clone()
      var f = 0
      while (f < freeDims.length) {
        val i = freeDims(f)
        if (!local) r(i) = decode(i, if (isCat(i)) rng.nextInt(card(i)).toDouble else rng.nextDouble())
        else if (!isCat(i)) r(i) = decode(i, (anchorUnit(a)(i) + rng.nextGaussian() * sigma).max(0.0).min(1.0))
        else if (rng.nextDouble() < PCat) r(i) = decode(i, rng.nextInt(card(i)).toDouble)
        f += 1
      }
      raw(j) = r
      val u = pinnedUnit(a).clone()
      f = 0
      while (f < freeDims.length) { val i = freeDims(f); u(i) = encode(i, r(i)); f += 1 }
      unit(j) = u
      j += 1
    }
    while (j < n) {
      val r = new Array[Double](dim)
      var i = 0
      while (i < dim) { r(i) = decode(i, rng.nextDouble()); i += 1 }
      raw(j) = r
      unit(j) = unitRow(r, extra)
      j += 1
    }
    new CandidatePool(raw, unit)
  }
}

/** Candidates as rows: `raw(j)` holds candidate j's raw values in space
  * order (what `Config` holds) and `unit(j)` its unit encoding, with any
  * extra coordinates appended. */
final class CandidatePool(val raw: Array[Array[Double]], val unit: Array[Array[Double]]) {
  def size: Int = raw.length

  /** Candidate j as a configuration. */
  def config(j: Int): Config = {
    val r = raw(j)
    Config(Vector.tabulate(r.length)(r(_)))
  }
}

private object ConfigSpace {
  /** Probability that a local move redraws a free categorical dim. */
  final val PCat = 0.25
  final val IntKind = 0
  final val DoubleKind = 1
  final val CatKind = 2
}

/** Low-discrepancy sequence generator (Halton; stands in for Sobol [67]). */
object LowDiscrepancy {
  private val Primes: Vector[Int] = {
    var acc = Vector.empty[Int]
    var n = 2
    while (acc.size < 64) { if ((2 until n).forall(n % _ != 0)) acc :+= n; n += 1 }
    acc
  }

  /** van der Corput radical inverse of `i` in base `b`. */
  def radicalInverse(i: Long, b: Int): Double = {
    var f = 1.0; var r = 0.0; var k = i
    while (k > 0) { f /= b; r += f * (k % b); k /= b }
    r
  }

  /** `n` points of a `dim`-dimensional scrambled Halton sequence. */
  def halton(n: Int, dim: Int, seed: Long = 0L): Vector[Array[Double]] = {
    require(dim <= Primes.size, s"dim $dim exceeds ${Primes.size} supported dims")
    val rng = new Random(seed)
    val shift = Array.fill(dim)(rng.nextDouble())
    Vector.tabulate(n) { i =>
      Array.tabulate(dim) { d =>
        val v = radicalInverse(i.toLong + 1, Primes(d)) + shift(d)
        v - math.floor(v)
      }
    }
  }
}
