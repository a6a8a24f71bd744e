package repro.core

import repro.env.RunResult

/** The generalized tuning objective of Eq. 1:
  *
  *   minimize  f(x) = T(x)^β · R(x)^(1−β)
  *   s.t.      T(x) ≤ Tmax,  R(x) ≤ Rmax
  *
  * β=1 → pure runtime, β=0 → pure resource, β=0.5 → execution cost
  * (√(T·R), monotone in T·R — "equivalent to optimizing the execution cost
  * by ignoring the square root"). The display form of Eq. 1 is corrupted in
  * the source text; this form is uniquely determined by the AGD derivative
  * in Eq. 9 and matches all stated special cases (DESIGN.md §5).
  *
  * @param beta  objective tendency β ∈ [0,1]
  * @param tMax  max tolerated runtime (∞ = unconstrained)
  * @param rMax  max tolerated resource (∞ = unconstrained)
  */
final case class Objective(beta: Double,
                           tMax: Double = Double.PositiveInfinity,
                           rMax: Double = Double.PositiveInfinity) extends Serializable {
  require(beta >= 0.0 && beta <= 1.0, s"beta out of [0,1]: $beta")

  /** Objective value from runtime and resource. */
  def value(runtime: Double, resource: Double): Double =
    math.pow(runtime.max(1e-9), beta) * math.pow(resource.max(1e-9), 1.0 - beta)

  def value(r: RunResult): Double = value(r.runtimeSec, r.resource)

  /** Constraint satisfaction of an observed run. */
  def feasible(r: RunResult): Boolean =
    !r.failed && r.runtimeSec <= tMax && r.resource <= rMax

  /** The paper's production setting: execution cost with constraints at
    * 2× the manual configuration's metrics (§6.2). */
  def withConstraintsFrom(manualRuntime: Double, manualResource: Double): Objective =
    copy(tMax = 2.0 * manualRuntime, rMax = 2.0 * manualResource)
}

/** One tuning observation: configuration + run outcome + derived values. */
final case class Observation(config: repro.space.Config,
                             result: RunResult,
                             objective: Double,
                             feasible: Boolean,
                             iter: Int) extends Serializable

/** Append-only run history of a tuning task (the "data repository" entry
  * for one task). */
final class RunHistory extends Serializable {
  private var obs: Vector[Observation] = Vector.empty

  def add(o: Observation): Unit = { obs = obs :+ o }
  def all: Vector[Observation] = obs
  def size: Int = obs.size
  def nonEmpty: Boolean = obs.nonEmpty

  /** Best (lowest-objective) feasible observation, if any; otherwise the
    * best overall (the controller still has to answer config requests). */
  def best: Option[Observation] = RunHistory.ranked(obs).headOption

  def bestObjective: Double = best.map(_.objective).getOrElse(Double.PositiveInfinity)
}

object RunHistory {
  /** The feasible observations, or all of them when none is feasible,
    * best objective first (a stable sort: ties keep history order). */
  def ranked(obs: Vector[Observation]): Vector[Observation] = {
    val feas = obs.filter(_.feasible)
    (if (feas.nonEmpty) feas else obs).sortBy(_.objective)
  }
}
