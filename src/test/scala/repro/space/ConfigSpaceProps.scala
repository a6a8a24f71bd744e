package repro.space

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite for the unit-cube encoding — runs under
  * sbt's native ScalaCheck framework alongside the ScalaTest suites. */
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
      val p = cs.perturbInSubspace(c, (0 until cs.dim).toSet, rng, sigma = 0.0, pCat = 0.0)
      (0 until cs.dim).forall { i =>
        cs.isCat(i) || math.abs(p(i) - c(i)) <= math.abs(c(i)) * 0.02 + 1.0
      }
    }
}
