package repro.meta

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Observation
import repro.env.{FleetGen, RunResult}
import repro.space.{SparkParams => SP}
import repro.surrogate.{Pred, Surrogate}

class WarmStartSpec extends AnyFunSuite {
  private val cs = FleetGen.hibenchSpace

  private def obs(inst: Int, y: Double, feasible: Boolean = true): Observation = {
    val c = cs.withValue(SP.defaults(cs), SP.Instances, inst)
    Observation(c, RunResult(y, 0, 0, 1, 10, failed = false), y, feasible, 0)
  }

  private def srcTask(name: String, bestInst: Int, metaShift: Double): SourceTask = {
    val hist = Vector(obs(bestInst, 1.0), obs(bestInst + 4, 5.0), obs(bestInst + 8, 9.0))
    SourceTask(name, Array.fill(MetaFeatures.Dim)(metaShift.min(1.0)), hist,
      (x: Array[Double]) => Pred(x(0), 1.0))
  }

  /** Distance model driven by the first meta-feature difference. */
  private val model = {
    val sA: Surrogate = x => Pred(x(0), 1.0)
    val sB: Surrogate = x => Pred(x(0) + 0.01 * x(1), 1.0)
    val sC: Surrogate = x => Pred(-x(0), 1.0)
    TaskSimilarity.train(cs, Seq(
      (Array.fill(MetaFeatures.Dim)(0.0), sA),
      (Array.fill(MetaFeatures.Dim)(0.05), sB),
      (Array.fill(MetaFeatures.Dim)(1.0), sC)), nSample = 40, seed = 2)
  }

  test("similarSources ranks by learned distance and returns top-k") {
    val sources = Seq(srcTask("near", 4, 0.0), srcTask("mid", 8, 0.5), srcTask("far", 16, 1.0),
      srcTask("farther", 20, 1.0))
    val top3 = WarmStart.similarSources(model, Array.fill(MetaFeatures.Dim)(0.0), sources)
    assert(top3.size == 3)
    assert(top3.map(_._2).sliding(2).forall(p => p.head <= p.last))
  }

  test("initialConfigs returns the best config of each similar source") {
    val sources = Seq(srcTask("a", 4, 0.0), srcTask("b", 8, 0.1))
    val inits = WarmStart.initialConfigs(model, Array.fill(MetaFeatures.Dim)(0.0), sources)
    assert(inits.size == 2)
    val insts = inits.map(c => cs.value(c, SP.Instances)).toSet
    assert(insts == Set(4.0, 8.0)) // each source's best (objective 1.0) config
  }

  test("initialConfigs skips sources with empty histories") {
    val empty = SourceTask("e", Array.fill(MetaFeatures.Dim)(0.0), Vector.empty,
      (x: Array[Double]) => Pred(0.0, 1.0))
    val inits = WarmStart.initialConfigs(model, Array.fill(MetaFeatures.Dim)(0.0),
      Seq(empty, srcTask("a", 6, 0.0)))
    assert(inits.size == 1)
  }

  test("ensembleBases weights are 1 - distance") {
    val sources = Seq(srcTask("a", 4, 0.0), srcTask("b", 8, 1.0))
    val bases = WarmStart.ensembleBases(model, Array.fill(MetaFeatures.Dim)(0.0), sources)
    assert(bases.size == 2)
    bases.foreach { case (_, w) => assert(w >= 0.0 && w <= 1.0) }
  }

  test("SourceTask.fromHistory fits a GP over the history") {
    val hist = Vector(obs(4, 10.0), obs(12, 20.0), obs(30, 40.0))
    val st = SourceTask.fromHistory(cs, "t", Array.fill(MetaFeatures.Dim)(0.5), hist)
    val p = st.surrogate.predict(cs.toUnit(hist.head.config))
    assert(math.abs(p.mean - math.log(10.0)) < 1.0)
  }
}
