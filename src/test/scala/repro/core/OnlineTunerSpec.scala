package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.env.{FleetGen, SparkClusterSim, Workloads}
import repro.space.{SparkParams => SP}

class OnlineTunerSpec extends AnyFunSuite {
  private val cs = FleetGen.hibenchSpace
  private val sim = new SparkClusterSim(Workloads.TeraSort, cs)
  private val manual = FleetGen.manualConfig(cs, 16, 4, 8)
  private val manualRt = sim.expectedRuntime(manual, Workloads.TeraSort.inputGB)
  private val objective = Objective(0.5).withConstraintsFrom(manualRt, sim.resource(manual))

  test("history length equals the budget") {
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 1), Vector(manual)).tune(12)
    assert(out.history.size == 12)
  }

  test("warm-start configs are evaluated first, in order") {
    val w2 = cs.withValue(manual, SP.Instances, 8)
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 2),
      Vector(manual, w2)).tune(8)
    assert(out.history.all(0).config == manual)
    assert(out.history.all(1).config == w2)
  }

  test("tuning improves the execution cost over the incumbent") {
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 3), Vector(manual)).tune(20)
    val manualCost = objective.value(manualRt, sim.resource(manual))
    assert(out.history.bestObjective < manualCost)
  }

  test("best configuration respects the runtime constraint") {
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 4), Vector(manual)).tune(20)
    val best = out.history.best.get
    assert(best.feasible)
    assert(best.result.runtimeSec <= objective.tMax * 1.05)
  }

  test("deterministic in seed") {
    def run(seed: Long) =
      new OnlineTuner(sim, objective, TunerSettings(seed = seed), Vector(manual))
        .tune(10).history.all.map(_.objective)
    assert(run(7) == run(7))
  }

  /** SHA-256 over the raw bits of every config value and objective, in
    * history order. A change that alters any suggestion changes the digest. */
  private def digest(out: TuneOutcome): String = {
    val buf = java.nio.ByteBuffer.allocate(out.history.all.map(_.config.values.size + 1).sum * 8)
    out.history.all.foreach { o =>
      o.config.values.foreach(v => buf.putLong(java.lang.Double.doubleToRawLongBits(v)))
      buf.putLong(java.lang.Double.doubleToRawLongBits(o.objective))
    }
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .map(b => f"${b & 0xff}%02x").mkString
  }

  private def session(obj: Objective, settings: TunerSettings,
                      metaBases: Vector[(repro.surrogate.Surrogate, Double)] = Vector.empty): TuneOutcome = {
    val out = new OnlineTuner(sim, obj, settings, Vector(manual), metaBases).tune(30)
    assert(out.history.size == 30)
    out
  }

  test("golden history: 30-iteration TeraSort sessions hash to recorded digests") {
    def digestAt(beta: Double): String =
      digest(session(Objective(beta).withConstraintsFrom(manualRt, sim.resource(manual)),
        TunerSettings(seed = 12)))
    assert(digestAt(1.0) == "c2fb6a56a684662ce4f2cef1938592bbcfebefcd0c6a13c2a9cfa3d12a05c786")
    assert(digestAt(0.5) == "02c919417efc7aa8b017c3d1d447c67369034f0779b9910f65dc9b7efb2e06f8")
  }

  test("a session driven by hand through suggest/observe matches tune") {
    val settings = TunerSettings(seed = 12)
    val tuner = new OnlineTuner(sim, objective, settings, Vector(manual))
    val h = new RunHistory
    (0 until 30).foreach { it =>
      val config = tuner.suggest(h, sim.spec.dataSizeAt(it)).get
      val result = sim.run(config, it)
      val y = objective.value(result)
      val improved = objective.feasible(result) && y < h.bestObjective
      h.add(Observation(config, result, y, objective.feasible(result), it))
      tuner.observe(h, improved)
    }
    assert(digest(TuneOutcome(h, None)) == digest(session(objective, settings)))
  }

  test("one tuner fed unrelated histories in turn suggests what a fresh tuner does for each") {
    // Its GP state extends only a history that continues the runs it holds.
    // At 4, 9 and 14 runs the next run is an AGD step, which reads the GPs
    // and the history but no random draw, so a fresh tuner is comparable.
    def history(seed: Long) = new OnlineTuner(sim, objective, TunerSettings(seed = seed), Vector(manual))
      .tune(14).history.all
    val (a, b) = (history(21), history(22))
    def prefix(obs: Vector[Observation], n: Int) = { val h = new RunHistory; obs.take(n).foreach(h.add); h }
    val tuner = new OnlineTuner(sim, objective, TunerSettings(seed = 23), Vector(manual))
    for ((obs, n) <- Seq((a, 4), (a, 9), (b, 4), (a, 14), (b, 9), (b, 14), (a, 9))) {
      val ds = sim.spec.dataSizeAt(n)
      val fresh = new OnlineTuner(sim, objective, TunerSettings(seed = 23), Vector(manual)).suggest(prefix(obs, n), ds)
      assert(tuner.suggest(prefix(obs, n), ds) == fresh, s"${if (obs eq a) "a" else "b"} at $n runs")
    }
  }

  test("golden history: no data-size dim, meta ensemble and unbounded runtime sessions") {
    // Paths the default sessions miss: a kernel without an SE column, the
    // Eq. 12 ensemble over a source-task GP, and β = 0.5 with T_max = ∞,
    // where the safe filter and EIC read every runtime bound as met.
    val noDs = digest(session(objective, TunerSettings(seed = 14, useDataSize = false)))
    val src = repro.meta.SourceTask.fromHistory(cs, "src",
      repro.meta.MetaFeatures.fromSpec(Workloads.TeraSort),
      session(objective, TunerSettings(seed = 15)).history.all)
    val meta = digest(session(objective, TunerSettings(seed = 16), Vector((src.surrogate, 0.8))))
    val unbounded = digest(session(Objective(0.5), TunerSettings(seed = 17)))
    assert(noDs == "33d4741342190e06018690b805a4d1f7e830b833d4acad5ee79b757a3ba8357b")
    assert(meta == "c168bc11c2f23d44e8b6f09fd25f80a2ac34cd65204113c72abd7121fbe5f2dc")
    assert(unbounded == "beaf288acc5e91337db6bcf2274274e83399fa89f4514ebde1ff63e73e6b5e37")
  }

  test("safety on yields at least as many feasible trials as safety off") {
    def feasibleCount(safety: Boolean) = (0 until 3).map { s =>
      val settings = TunerSettings(seed = 50 + s, useSafety = safety)
      new OnlineTuner(sim, objective, settings, Vector(manual)).tune(15)
        .history.all.count(_.feasible)
    }.sum
    assert(feasibleCount(true) >= feasibleCount(false))
  }

  test("stopping criterion halts the loop early when EI threshold is huge") {
    val out = new OnlineTuner(sim, objective,
      TunerSettings(seed = 6, stopEi = 1e6), Vector(manual)).tune(20)
    assert(out.stoppedAt.isDefined)
    assert(out.history.size < 20)
  }

  test("stopEi=0 never triggers early stop") {
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 7), Vector(manual)).tune(10)
    assert(out.stoppedAt.isEmpty)
  }

  test("degradation detection fires on sustained regressions only") {
    val tuner = new OnlineTuner(sim, objective, TunerSettings(seed = 8))
    val h = new RunHistory
    def obs(y: Double, i: Int) = Observation(manual,
      repro.env.RunResult(y, 0, 0, 1, 10, failed = false), y, feasible = true, i)
    h.add(obs(100, 0)); h.add(obs(100, 1))
    h.add(obs(200, 2)); h.add(obs(210, 3)); h.add(obs(220, 4))
    assert(tuner.degradationDetected(h, window = 3, tol = 0.3))
    val h2 = new RunHistory
    h2.add(obs(100, 0)); h2.add(obs(100, 1)); h2.add(obs(101, 2))
    assert(!tuner.degradationDetected(h2, window = 3, tol = 0.3))
  }

  test("degradation detection measures against the feasible incumbent, not a cheaper infeasible run") {
    val tuner = new OnlineTuner(sim, objective, TunerSettings(seed = 8))
    val h = new RunHistory
    def obs(y: Double, feasible: Boolean, i: Int) = Observation(manual,
      repro.env.RunResult(y, 0, 0, 1, 10, failed = false), y, feasible, i)
    // A run over T_max with objective 50 must not set the bar at 50 · 1.3.
    h.add(obs(50, feasible = false, 0)); h.add(obs(100, feasible = true, 1))
    h.add(obs(120, feasible = true, 2)); h.add(obs(125, feasible = true, 3)); h.add(obs(130, feasible = true, 4))
    assert(!tuner.degradationDetected(h, window = 3, tol = 0.3))
  }

  test("AGD iterations appear every N_AGD trials and stay legal") {
    val out = new OnlineTuner(sim, objective,
      TunerSettings(seed = 9, nAgd = 5), Vector(manual)).tune(12)
    out.history.all.foreach(o => assert(cs.clip(o.config) == o.config))
  }

  test("meta ensemble path runs (bases from a source task)") {
    val srcOut = new OnlineTuner(sim, objective, TunerSettings(seed = 10), Vector(manual)).tune(10)
    val src = repro.meta.SourceTask.fromHistory(cs, "src",
      repro.meta.MetaFeatures.fromSpec(Workloads.TeraSort), srcOut.history.all)
    val out = new OnlineTuner(sim, objective, TunerSettings(seed = 11),
      Vector(manual), Vector((src.surrogate, 0.8))).tune(10)
    assert(out.history.size == 10)
  }
}
