package repro.core

import repro.SparkSpec
import repro.env.FleetGen
import repro.meta.{MetaFeatures, WarmStart}

class TuningServiceSpec extends SparkSpec {

  test("tuneOne produces consistent pre/post metrics for a fleet task") {
    val task = FleetGen.fleet(1, seed = 10).head
    val row = TuningService.tuneOne(task, budget = 12)
    assert(row.preRuntime > 0 && row.postRuntime > 0)
    assert(row.preMemGBh > 0 && row.postMemGBh > 0)
    assert(row.bestIter >= 1 && row.bestIter <= 12)
    assert(row.instances >= 1 && row.cores >= 1 && row.memoryGB >= 1)
  }

  test("tuneOne post cost does not exceed the manual cost (incumbent is trial 1)") {
    val task = FleetGen.fleet(3, seed = 11)(1)
    val row = TuningService.tuneOne(task, budget = 15)
    assert(row.postCost <= row.preCost * 1.10) // noise tolerance
  }

  test("aggregate computes signed percentage reductions") {
    val r = FleetRow("t", 100, 100, 100, 100, 90, 110, 95, 50, 80, 90, 50, 3, 1, 1, 1)
    val t3 = TuningService.aggregate(Seq(r))
    assert(math.abs(t3.underMem - 10.0) < 1e-9)
    assert(math.abs(t3.underCpu + 10.0) < 1e-9) // CPU increased under tuning
    assert(math.abs(t3.postMem - 50.0) < 1e-9)
    assert(math.abs(t3.postRt - 10.0) < 1e-9)
  }

  test("tuneFleet runs as a Spark Dataset job over a small fleet") {
    val tasks = FleetGen.fleet(4, seed = 12)
    val rows = TuningService.tuneFleet(spark, tasks, budget = 8, withMeta = false).collect()
    assert(rows.length == 4)
    assert(rows.map(_.name).toSeq == tasks.map(_.name)) // collected in task order
    rows.foreach(r => assert(r.preRuntime > 0 && r.postRuntime > 0))
    // Each row depends on its task alone, not on the job's partitioning.
    assert(rows.sortBy(_.name).toSeq == tasks.sortBy(_.name).map(TuningService.tuneOne(_, 8)))
  }

  test("tuneFleet with meta warm starts equals serial tuneOne from the knowledge base (Table 3)") {
    val tasks = FleetGen.fleet(4, seed = 13)
    val rows = TuningService.tuneFleet(spark, tasks, budget = 8, withMeta = true).collect()
    val (model, sources) = TuningService.buildKnowledgeBase()
    val warm = tasks.map(t => WarmStart.initialConfigs(model, MetaFeatures.fromSpec(t.spec), sources))
    assert(warm.forall(_.size == WarmStart.Top))
    val serial = tasks.zip(warm).map { case (t, w) => TuningService.tuneOne(t, 8, TunerSettings(), w) }
    assert(rows.sortBy(_.name).toSeq == serial.sortBy(_.name))
    // The warm starts reach the sessions: without them some row differs.
    assert(serial != tasks.map(TuningService.tuneOne(_, 8)))
  }

  test("buildKnowledgeBase yields sources with surrogates and a distance model") {
    val (model, sources) = TuningService.buildKnowledgeBase(n = 3, budget = 6, seed = 3)
    assert(sources.size == 3)
    val d = model.distance(sources(0).metaFeatures, sources(1).metaFeatures)
    assert(d >= 0.0 && d <= 1.0)
    assert(model.distance(sources(0).metaFeatures, sources(0).metaFeatures) <= 0.6)
  }
}
