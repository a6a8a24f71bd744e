package repro.space

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class ConfigSpaceSpec extends AnyFunSuite {
  private val cs = SparkParams.space()
  private val rng = new Random(1)

  test("space has exactly 30 parameters (Tuneful set)") { assert(cs.dim == 30) }

  test("indexOf resolves every parameter name") {
    cs.params.foreach(p => assert(cs.params(cs.indexOf(p.name)).name == p.name))
  }

  test("indexOf throws on unknown name") {
    assertThrows[NoSuchElementException](cs.indexOf("spark.nope"))
  }

  test("contains is consistent with indexOf") {
    assert(cs.contains("spark.executor.memory"))
    assert(!cs.contains("spark.bogus"))
  }

  test("isCat flags exactly the categorical dims") {
    val cats = (0 until cs.dim).filter(cs.isCat)
    assert(cats.size == 7) // compress×3, codec, serializer, speculation, rddCompress... counted below
    cats.foreach(i => assert(cs.params(i).isInstanceOf[CatParam]))
  }

  test("cardinality is 1 for numeric, #choices for categorical") {
    assert(cs.cardinality(cs.indexOf(SparkParams.Instances)) == 1)
    assert(cs.cardinality(cs.indexOf(SparkParams.IoCodec)) == 3)
    assert(cs.cardinality(cs.indexOf(SparkParams.Serializer)) == 2)
  }

  test("sampleRandom stays in range and clip is a no-op on it") {
    (0 until 50).foreach { _ =>
      val c = cs.sampleRandom(rng)
      assert(cs.clip(c) == c)
    }
  }

  test("clip snaps integers and bounds values") {
    val c0 = cs.sampleRandom(rng)
    val iMem = cs.indexOf(SparkParams.ExecMemory)
    val clipped = cs.clip(c0.updated(iMem, 9999.7))
    assert(clipped(iMem) == 32.0)
    val clipped2 = cs.clip(c0.updated(iMem, -5.0))
    assert(clipped2(iMem) == 1.0)
  }

  test("toUnit/fromUnit round-trips legal configs") {
    (0 until 50).foreach { _ =>
      val c = cs.sampleRandom(rng)
      val back = cs.fromUnit(cs.toUnit(c))
      // Unit values of categorical dims are indices; fromUnit floors u*card,
      // so re-encode must equal original after one round (ints snap).
      back.values.zip(c.values).zipWithIndex.foreach { case ((b, o), i) =>
        if (cs.isCat(i)) assert(math.rint(b) >= 0)
        else assert(math.abs(b - o) <= math.abs(o) * 0.02 + 1.0, s"dim $i: $b vs $o")
      }
    }
  }

  // The encoding formulas, written out per parameter as the reference for
  // the precomputed per-dimension constants.
  private def refToUnit(sp: ConfigSpace, c: Config): Array[Double] = {
    def unit(v: Double, lo: Double, hi: Double, log: Boolean) =
      if (log) (math.log(v.max(lo)) - math.log(lo)) / (math.log(hi) - math.log(lo))
      else ((v - lo) / (hi - lo)).max(0.0).min(1.0)
    Array.tabulate(sp.dim) { i =>
      sp.params(i) match {
        case IntParam(_, lo, hi, log)    => unit(c(i), lo.toDouble, hi.toDouble, log)
        case DoubleParam(_, lo, hi, log) => unit(c(i), lo, hi, log)
        case CatParam(_, _)              => c(i)
      }
    }
  }

  private def refFromUnit(sp: ConfigSpace, u: Array[Double]): Config = {
    def raw(u: Double, lo: Double, hi: Double, log: Boolean) = {
      val uc = u.max(0.0).min(1.0)
      if (log) math.exp(math.log(lo) + uc * (math.log(hi) - math.log(lo)))
      else lo + uc * (hi - lo)
    }
    Config(Vector.tabulate(sp.dim) { i =>
      sp.params(i) match {
        case IntParam(_, lo, hi, log) =>
          math.rint(raw(u(i), lo.toDouble, hi.toDouble, log)).max(lo.toDouble).min(hi.toDouble)
        case DoubleParam(_, lo, hi, log) => raw(u(i), lo, hi, log).max(lo).min(hi)
        case CatParam(_, cs) =>
          val v = if (u(i) >= 0.0 && u(i) < 1.0) math.floor(u(i) * cs.size) else math.rint(u(i))
          v.max(0).min((cs.size - 1).toDouble)
      }
    })
  }

  test("toUnit/fromUnit equal the per-parameter formulas to the bit") {
    val r = new Random(21)
    def bits(a: Seq[Double]) = a.map(java.lang.Double.doubleToRawLongBits)
    for (sp <- Seq(repro.env.FleetGen.prodSpace, repro.env.FleetGen.hibenchSpace); _ <- 0 until 300) {
      val c = sp.sampleRandom(r)
      assert(bits(sp.toUnit(c).toSeq) == bits(refToUnit(sp, c).toSeq))
      // Unit draws plus values outside [0,1) exercise clamping and raw
      // categorical indices.
      val u = Array.fill(sp.dim)(r.nextDouble() * 3.0 - 1.0)
      assert(bits(sp.fromUnit(u).values) == bits(refFromUnit(sp, u).values))
      val v = Array.fill(sp.dim)(r.nextDouble())
      assert(bits(sp.fromUnit(v).values) == bits(refFromUnit(sp, v).values))
    }
  }

  test("fromUnit rejects wrong dimension") {
    assertThrows[IllegalArgumentException](cs.fromUnit(Array(0.5)))
  }

  test("withValue sets and clips named parameter") {
    val c = SparkParams.defaults(cs)
    val c2 = cs.withValue(c, SparkParams.ExecCores, 5.4)
    assert(cs.value(c2, SparkParams.ExecCores) == 5.0)
  }

  test("choice decodes categorical values") {
    val c = cs.withValue(SparkParams.defaults(cs), SparkParams.IoCodec, 2.0)
    assert(cs.choice(c, SparkParams.IoCodec) == "zstd")
  }

  test("choice on numeric parameter throws") {
    assertThrows[IllegalArgumentException](
      cs.choice(SparkParams.defaults(cs), SparkParams.ExecCores))
  }

  test("sampleLowDiscrepancy is deterministic in seed") {
    val a = cs.sampleLowDiscrepancy(10, 7)
    val b = cs.sampleLowDiscrepancy(10, 7)
    assert(a == b)
    assert(cs.sampleLowDiscrepancy(10, 8) != a)
  }

  test("low-discrepancy points are spread: all instances not identical") {
    val pts = cs.sampleLowDiscrepancy(16, 3)
    val inst = pts.map(p => cs.value(p, SparkParams.Instances)).distinct
    assert(inst.size > 4)
  }

  test("perturb keeps configs legal and near the anchor") {
    val c = SparkParams.defaults(cs)
    (0 until 20).foreach { _ =>
      val p = cs.perturbInSubspace(c, (0 until cs.dim).toSet, rng, sigma = 0.05)
      assert(cs.clip(p) == p)
    }
  }

  test("sampleInSubspace pins non-free dims to the anchor") {
    val anchor = SparkParams.defaults(cs)
    val free = Set(cs.indexOf(SparkParams.Instances), cs.indexOf(SparkParams.ExecMemory))
    (0 until 20).foreach { _ =>
      val s = cs.sampleInSubspace(anchor, free, rng)
      (0 until cs.dim).foreach { i =>
        if (!free.contains(i)) assert(s(i) == anchor(i), s"dim $i moved")
      }
    }
  }

  test("sampleInSubspace varies the free dims") {
    val anchor = SparkParams.defaults(cs)
    val free = Set(cs.indexOf(SparkParams.Instances))
    val vals = (0 until 30).map(_ => cs.sampleInSubspace(anchor, free, rng)(free.head)).distinct
    assert(vals.size > 5)
  }

  test("batch sampleInSubspace equals per-call draws and leaves the Random in the same state") {
    val r = new Random(21)
    val anchors = SparkParams.defaults(cs) +: cs.sampleRandom(r, 2)
    def bits(c: Config) = c.values.map(java.lang.Double.doubleToRawLongBits)
    // Sizes 0–4 are Set1–Set4 (insertion order), larger ones HashSets.
    for (size <- Seq(0, 1, 4, 5, 12, 30); nAnchors <- 1 to 3) {
      val free = r.shuffle((0 until cs.dim).toVector).take(size).toSet
      assert(free.isInstanceOf[scala.collection.immutable.HashSet[_]] == size > 4)
      val seed = r.nextLong()
      val (a, b) = (new Random(seed), new Random(seed))
      val pool = cs.drawPool(anchors.take(nAnchors), free, a, nSub = 40, nLoc = 0, nGlob = 0)
      val batch = Vector.tabulate(pool.size)(pool.config)
      val ref = Vector.tabulate(40)(i => PoolRef.sampleInSubspace(cs, anchors(i % nAnchors), free, b))
      assert(batch.map(bits) == ref.map(bits), s"free=$free anchors=$nAnchors")
      assert(a.nextLong() == b.nextLong(), s"free=$free anchors=$nAnchors")
      assert(bits(cs.sampleInSubspace(anchors(0), free, new Random(seed))) ==
        bits(PoolRef.sampleInSubspace(cs, anchors(0), free, new Random(seed))))
    }
  }

  test("halton points lie in [0,1) and are distinct") {
    val pts = LowDiscrepancy.halton(64, 5, 1)
    pts.foreach(_.foreach(v => assert(v >= 0.0 && v < 1.0)))
    assert(pts.map(_.toVector).distinct.size == 64)
  }

  test("radical inverse base 2 of 1,2,3 = 0.5, 0.25, 0.75") {
    assert(LowDiscrepancy.radicalInverse(1, 2) == 0.5)
    assert(LowDiscrepancy.radicalInverse(2, 2) == 0.25)
    assert(LowDiscrepancy.radicalInverse(3, 2) == 0.75)
  }

  test("property: fromUnit of any unit vector is a legal config") {
    val r = new Random(9)
    (0 until 200).foreach { _ =>
      val c = cs.fromUnit(Array.fill(30)(r.nextDouble()))
      assert(cs.clip(c) == c)
    }
  }
}
