package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.baselines.Baselines
import repro.env.{FleetGen, Workloads}
import repro.jobs.HiBenchCompareJob

/** Tuner invariants over random §6.3 cells (HiBench task × method × seed ×
  * β), each a 30-iteration session from `HiBenchCompareJob.start`:
  * every observed configuration is legal, and a cell run twice gives the
  * same history. Over random fleet tasks under the production recipe,
  * every run the BO branch picks respects R_max. */
object TunerProps extends Properties("Tuner") {
  // A cell costs up to ~0.3 s (two sessions), so keep the run short.
  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(20)

  private val cell = for {
    spec <- Gen.oneOf(Workloads.six)
    method <- Gen.oneOf(Baselines.all)
    seed <- Gen.choose(0L, 1000000L)
    beta <- Gen.oneOf(1.0, 0.5)
  } yield (spec, method, seed, beta)

  property("a 30-iteration session stays in bounds and replays identically") =
    Prop.forAllNoShrink(cell) { case (spec, method, seed, beta) =>
      def history() = {
        val (sim, default, obj) = HiBenchCompareJob.start(spec, beta)
        method.tune(sim, obj, 30, seed, Vector(default)).all.map(o => (o.config, o.objective))
      }
      val first = history()
      val cs = HiBenchCompareJob.cs
      val label = s"${spec.name} ${method.name} seed=$seed beta=$beta"
      (first.forall { case (c, _) => cs.clip(c) == c } :| s"$label: config out of bounds") &&
        (history() == first) :| s"$label: replay differs"
    }

  private val fleetTask = for {
    fleetSeed <- Gen.choose(0L, 1000000L)
    seed <- Gen.choose(0L, 1000000L)
  } yield (FleetGen.fleet(1, fleetSeed).head, fleetSeed, seed)

  property("production recipe: every BO-branch run stays within R_max") =
    Prop.forAllNoShrink(fleetTask) { case (task, fleetSeed, seed) =>
      val settings = TunerSettings(seed = seed)
      val (sim, _, history) = TuningService.tuneOnline(task, 20, settings, Vector.empty)
      val rMax = 2.0 * sim.resource(task.manual) // §6.2: 2× the manual config's
      // Run 1 is the manual config (nInit = 1, no warm starts); after it,
      // the runs off the AGD schedule are the BO branch's picks.
      val over = history.all.zipWithIndex.collect {
        case (o, i) if i > 0 && (i + 1) % settings.nAgd != 0 && o.result.resource > rMax => i + 1
      }
      over.isEmpty :| s"${task.name} fleetSeed=$fleetSeed seed=$seed: runs ${over.mkString(", ")} exceed R_max"
    }
}
