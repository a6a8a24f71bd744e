package repro.bo

import repro.surrogate.Pred

/** Acquisition functions for BO (§3.3, §4.2). */
object Acquisition {

  /** Standard normal pdf. */
  def phi(z: Double): Double = math.exp(-0.5 * z * z) / math.sqrt(2 * math.Pi)

  /** Standard normal cdf (Abramowitz–Stegun erf approximation, |ε|<1.5e-7). */
  def Phi(z: Double): Double = {
    val t = 1.0 / (1.0 + 0.2316419 * math.abs(z))
    val poly = t * (0.319381530 + t * (-0.356563782 + t * (1.781477937 +
      t * (-1.821255978 + t * 1.330274429))))
    val p = 1.0 - phi(z) * poly
    if (z >= 0) p else 1.0 - p
  }

  /** Expected Improvement for minimization (Eq. 3):
    * EI(x) = σ(x)·(γΦ(γ) + φ(γ)),  γ = (y* − μ)/σ. */
  def ei(p: Pred, yBest: Double): Double = {
    val s = p.sigma
    if (s < 1e-12) math.max(yBest - p.mean, 0.0)
    else {
      val g = (yBest - p.mean) / s
      s * (g * Phi(g) + phi(g))
    }
  }

  /** Probability that a constrained metric stays under its threshold
    * (Eq. 7): Pr[T(x) ≤ Tmax] under the constraint surrogate's posterior. */
  def prFeasible(p: Pred, threshold: Double): Double =
    if (threshold.isPosInfinity) 1.0
    else Phi((threshold - p.mean) / p.sigma)

  /** EI with constraints (Eq. 6): EIC(x) = Πᵢ Pr[cᵢ ok] · EI(x). */
  def eic(obj: Pred, yBest: Double, constraints: Seq[(Pred, Double)]): Double = {
    var pr = 1.0
    constraints.foreach { case (p, thr) => pr *= prFeasible(p, thr) }
    pr * ei(obj, yBest)
  }
}

/** The safe region S_t of §4.2: configurations whose surrogate upper bound
  * u(x) = μ(x) + γσ(x) stays under every constraint threshold (Eq. 8).
  *
  * @param gamma bound multiplier γ ∈ (0,1]
  */
final class SafeRegion(gamma: Double) {
  require(gamma > 0 && gamma <= 1.0, s"gamma out of (0,1]: $gamma")

  /** Upper confidence bound on a constrained metric. */
  def upperBound(p: Pred): Double = p.mean + gamma * p.sigma

  /** Membership: x is safe iff every (surrogate prediction, threshold)
    * pair satisfies u(x) ≤ threshold. */
  def isSafe(constraints: Seq[(Pred, Double)]): Boolean =
    constraints.forall { case (p, thr) => thr.isPosInfinity || upperBound(p) <= thr }
}
