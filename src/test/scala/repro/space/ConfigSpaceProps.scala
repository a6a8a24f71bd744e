package repro.space

import scala.util.Random
import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.env.FleetGen

/** ScalaCheck property suite for the unit-cube encoding and the candidate
  * pool — runs under sbt's native ScalaCheck framework alongside the
  * ScalaTest suites. */
object ConfigSpaceProps extends Properties("ConfigSpace") {
  private val cs = SparkParams.space()
  private val unitVec: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](cs.dim, Gen.choose(0.0, 1.0))

  property("fromUnit always yields clip-stable configs") = Prop.forAll(unitVec) { u =>
    val c = cs.fromUnit(u)
    cs.clip(c) == c
  }

  property("toUnit maps numeric dims into [0,1]") = Prop.forAll(unitVec) { u =>
    val enc = cs.toUnit(cs.fromUnit(u))
    (0 until cs.dim).forall(i => cs.isCat(i) || (enc(i) >= -1e-9 && enc(i) <= 1 + 1e-9))
  }

  property("encode/decode is idempotent after the first round trip") =
    Prop.forAll(unitVec) { u =>
      val c1 = cs.fromUnit(u)
      val c2 = cs.fromUnit(cs.toUnit(c1))
      // Second decode of categorical dims re-floors indices; values must agree.
      val c3 = cs.fromUnit(cs.toUnit(c2))
      c2.values.zip(c3.values).zipWithIndex.forall { case ((a, b), i) =>
        if (cs.isCat(i)) true else math.abs(a - b) < 1e-6
      }
    }

  property("perturb with sigma=0 keeps numeric dims (cat may resample)") =
    Prop.forAll(Gen.choose(0L, 1000L)) { seed =>
      val rng = new scala.util.Random(seed)
      val c = cs.sampleRandom(rng)
      val p = cs.perturbInSubspace(c, (0 until cs.dim).toSet, rng, sigma = 0.0)
      (0 until cs.dim).forall { i =>
        cs.isCat(i) || math.abs(p(i) - c(i)) <= math.abs(c(i)) * 0.02 + 1.0
      }
    }

  private def bits(xs: Iterable[Double]) = xs.map(java.lang.Double.doubleToRawLongBits).toVector

  /** A pool request: a space, 1–3 legal anchors (the defaults, decoded
    * draws, clipped raw values), a free set (categorical
    * only, numeric only, mixed, or all dims; its iteration order is the
    * draw order), stream sizes with empty local and global streams
    * included, and a data-size coordinate or none. */
  private val poolCase = for {
    space <- Gen.oneOf(SparkParams.space(), FleetGen.hibenchSpace)
    anchorSeed <- Gen.long
    nAnchors <- Gen.choose(1, 3)
    withDefaults <- Gen.oneOf(true, false)
    dims = (0 until space.dim).toVector
    kind <- Gen.oneOf("cat", "num", "mixed", "all")
    pickFrom = kind match {
      case "cat" => dims.filter(space.isCat)
      case "num" => dims.filterNot(space.isCat)
      case _     => dims
    }
    size <- if (kind == "all") Gen.const(space.dim) else Gen.choose(1, pickFrom.size)
    order <- Gen.long
    nSub <- Gen.choose(0, 12)
    nLoc <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 12))
    nGlob <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 6))
    sigma <- Gen.oneOf(Gen.const(0.15), Gen.choose(0.0, 0.6))
    extra <- Gen.oneOf(Gen.const(Array.emptyDoubleArray), Gen.choose(0.0, 1.0).map(Array(_)))
    seed <- Gen.long
  } yield {
    val ar = new Random(anchorSeed)
    // Decoded draws are fixed points of decode ∘ encode. Hand-set values
    // (three decimals, as in a manual config) are legal but about one in
    // nine is not a fixed point, so they show which value a pin takes.
    val random = Vector.fill(3) {
      if (ar.nextBoolean()) PoolRef.sampleRandom(space, ar)
      else space.clip(Config(space.params.map {
        case IntParam(_, lo, hi, _)    => lo + ar.nextDouble() * (hi - lo)
        case DoubleParam(_, lo, hi, _) => math.rint((lo + ar.nextDouble() * (hi - lo)) * 1000) / 1000
        case CatParam(_, choices)      => ar.nextInt(choices.size).toDouble
      }))
    }
    val anchors = (if (withDefaults) SparkParams.defaults(space) +: random else random).take(nAnchors)
    val free = new Random(order).shuffle(pickFrom).take(size).toSet
    (space, anchors, free, nSub, nLoc, nGlob, sigma, extra, seed)
  }

  property("the one-pass pool equals the three per-candidate streams to the bit") =
    Prop.forAllNoShrink(poolCase) { case (space, anchors, free, nSub, nLoc, nGlob, sigma, extra, seed) =>
      val (ra, rb) = (new Random(seed), new Random(seed))
      val pool = space.drawPool(anchors, free, ra, nSub, nLoc, nGlob, sigma, extra)
      val (refConfigs, refUnits) = PoolRef.pool(space, anchors, free, rb, nSub, nLoc, nGlob, sigma, extra)
      val label = s"free=$free anchors=${anchors.size} streams=($nSub, $nLoc, $nGlob) seed=$seed"
      (anchors.forall(c => space.clip(c) == c) :| s"$label: illegal anchor") &&
        ((pool.raw.toVector.map(bits(_)) == refConfigs.map(c => bits(c.values))) :| s"$label: raw values differ") &&
        ((Vector.tabulate(pool.size)(pool.config) == refConfigs) :| s"$label: configs differ") &&
        ((pool.unit.toVector.map(bits(_)) == refUnits.map(bits(_))) :| s"$label: unit rows differ") &&
        ((ra.nextLong() == rb.nextLong()) :| s"$label: the Random is left in another state")
    }
}
