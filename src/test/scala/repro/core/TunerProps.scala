package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.baselines.Baselines
import repro.env.Workloads
import repro.jobs.HiBenchCompareJob

/** Tuner invariants over random §6.3 cells (HiBench task × method × seed ×
  * β), each a 30-iteration session from `HiBenchCompareJob.start`:
  * every observed configuration is legal, and a cell run twice gives the
  * same history. */
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
}
