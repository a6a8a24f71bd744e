package repro.core

import repro.env.SparkClusterSim
import repro.space.Config

/** Outcome of a tuning session. */
final case class TuneOutcome(history: RunHistory, stoppedAt: Option[Int])

/** The ask/tell face of a tuner (§3.1: a service answering one request per
  * periodic production run), in the shape of OpenBox's
  * `get_suggestion`/`update_observation`. A single-method trait, so a
  * stateless tuner can be written as a lambda.
  */
trait Controller {
  /** The configuration for the next run, whose input is `dsGB`; `None` is
    * the §3.3 stop. */
  def suggest(history: RunHistory, dsGB: Double): Option[Config]

  /** Told after the last run was appended to `history`; `improved` when it
    * is feasible and beats the incumbent from before it. */
  def observe(history: RunHistory, improved: Boolean): Unit = ()
}

object Controller {
  /** The tuning session: the `init` configs first, then `c`'s suggestions,
    * one production run each, for `budget` runs or until `c` stops.
    *
    * @param startIter index of the first production run (data-size drift
    *                  phase); lets callers model pre-tuning manual runs.
    */
  def run(c: Controller, sim: SparkClusterSim, objective: Objective, budget: Int,
          init: Vector[Config], startIter: Int = 0): TuneOutcome = {
    val history = new RunHistory
    var it = 0
    while (it < budget) {
      val iter = startIter + it
      val next = if (it < init.size) Some(init(it)) else c.suggest(history, sim.spec.dataSizeAt(iter))
      if (next.isEmpty) return TuneOutcome(history, Some(it))
      val result = sim.run(next.get, iter)
      val y = objective.value(result)
      val feasible = objective.feasible(result)
      val improved = feasible && y < history.bestObjective
      history.add(Observation(next.get, result, y, feasible, iter))
      c.observe(history, improved)
      it += 1
    }
    TuneOutcome(history, None)
  }
}
