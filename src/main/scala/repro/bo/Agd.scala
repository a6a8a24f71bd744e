package repro.bo

import repro.space.{Config, ConfigSpace}
import repro.surrogate.{Block, Surrogate}

/** Approximate Gradient Descent (§4.3, Eq. 9–11).
  *
  * Every N_AGD BO iterations the next configuration is produced by one
  * gradient step from the incumbent:
  *
  *   ∂f/∂xⁱ = β (T/R)^(β−1) ∂T/∂xⁱ + (1−β)(T/R)^β ∂R/∂xⁱ
  *
  * ∂T/∂xⁱ comes from central differences of the *runtime surrogate*
  * (Eq. 10) — no extra job executions; ∂R/∂xⁱ from central differences of
  * the white-box resource function (exact for the linear R).
  *
  * Differences (half-width `Eps`) and updates are taken in the unit cube
  * so one learning rate serves parameters of wildly different raw scales;
  * steps are clipped to `MaxStep` per dimension to keep single AGD moves
  * sane. Categorical dimensions are left untouched (the paper
  * differentiates numerical parameters only).
  */
final class Agd(cs: ConfigSpace, beta: Double, resourceOf: Config => Double, eta: Double) {
  private val Eps = 0.05
  private val MaxStep = 0.05

  /** One AGD step from `best`.
    *
    * @param runtimeSurrogate surrogate over unit vectors (config dims
    *                         possibly followed by a data-size dim)
    * @param extra            values of trailing non-config dims (data size)
    */
  def step(best: Config, runtimeSurrogate: Surrogate, extra: Array[Double]): Config = {
    val u = cs.toUnit(best)
    def pad(v: Array[Double]): Array[Double] = if (extra.isEmpty) v else v ++ extra
    def rAt(v: Array[Double]): Double = resourceOf(cs.fromUnit(v)).max(1e-6)
    def moved(i: Int, to: Double): Array[Double] = { val v = u.clone(); v(i) = to; v }

    val num = (0 until cs.dim).filterNot(cs.isCat).toArray
    val ups = num.map(i => moved(i, (u(i) + Eps).min(1.0)))
    val dns = num.map(i => moved(i, (u(i) - Eps).max(0.0)))
    // The runtime surrogate at u and at both ends of every difference, as
    // one block: t(0) at u, t(1 + k) at ups(k), t(1 + K + k) at dns(k).
    val t = runtimeSurrogate.predictBlock(Block.of((u +: (ups ++ dns)).map(pad)))
      .map(_.mean.max(1e-6))
    val r0 = rAt(u)
    val ratio = t(0) / r0

    val out = u.clone()
    num.indices.foreach { k =>
      val i = num(k)
      val (up, dn) = (ups(k), dns(k))
      val h = (up(i) - dn(i)).max(1e-9)
      val dT = (t(1 + k) - t(1 + num.length + k)) / h // Eq. 10
      val dR = (rAt(up) - rAt(dn)) / h
      val grad = beta * math.pow(ratio, beta - 1.0) * dT +
        (1.0 - beta) * math.pow(ratio, beta) * dR     // Eq. 9
      val stepRaw = eta * grad                        // Eq. 11
      val step = math.signum(stepRaw) * math.min(math.abs(stepRaw), MaxStep)
      out(i) = (u(i) - step).max(0.0).min(1.0)
    }
    cs.fromUnit(out)
  }
}
