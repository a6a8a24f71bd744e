package repro.surrogate

import repro.linalg.Lin

/** Posterior prediction of a surrogate at one point. */
final case class Pred(mean: Double, variance: Double) {
  def sigma: Double = math.sqrt(variance.max(1e-12))
}

/** A trained surrogate model: configurations (already unit-encoded,
  * possibly with a trailing data-size dim) → predictive Gaussian.
  */
trait Surrogate extends Serializable {
  def predict(x: Array[Double]): Pred
}

/** One grid lengthscale's kernel bound to the training inputs, with the
  * Cholesky factor L of K + τ²I. GPs fitted together on the same inputs
  * that select the same lengthscale share one instance.
  */
private final class Factor(kernel: Kernel, val xs: Array[Array[Double]],
                           val noise: Double) extends Serializable {
  val rows: KernelRows = kernel.rows(xs)
  /** k(x, x), the same for every x because the kernels are stationary. */
  val kxx: Double = {
    val buf = new Array[Double](1)
    rows.into(xs(0), buf, 1)
    buf(0)
  }
  val chol: Array[Array[Double]] = {
    // Lower triangle only (row i holds K(i, 0..i)): Lin.cholesky reads
    // nothing above the diagonal. The kernels are symmetric, so the row
    // at xs(i) is K's row i.
    val gram = Array.tabulate(xs.length) { i =>
      val r = new Array[Double](i + 1)
      rows.into(xs(i), r, i + 1)
      r(i) += noise
      r
    }
    Lin.cholesky(gram)._1
  }
  val logDet: Double = Lin.logDet(chol)
}

/** Gaussian-process regression surrogate (Eq. 2) with fixed-form mixed
  * kernels (Eq. 4) and white-noise level τ².
  *
  * Targets are standardized internally; predictions are de-standardized.
  * Fitting selects the kernel lengthscale scale from a small candidate
  * grid by marginal likelihood — the paper's motivation for GPs is that
  * they are effectively hyperparameter-free, which this preserves.
  */
final class Gp private (private[surrogate] val f: Factor,
                        alpha: Array[Double],
                        yMean: Double, yStd: Double) extends Surrogate {

  /** Predictive mean and variance at `x` (Eq. 2), on the original scale. */
  def predict(x: Array[Double]): Pred = {
    val kv = f.rows.row(x)
    at(kv, explained(kv))
  }

  /** ([[predict]], `o.predict`) at `x`. When both GPs were fitted together
    * and selected the same lengthscale, they share L, so one kernel row
    * k(X, x) and one solve v = L⁻¹k(X, x) serve both. */
  def predictPair(o: Gp, x: Array[Double]): (Pred, Pred) =
    if (f eq o.f) {
      val kv = f.rows.row(x)
      val vv = explained(kv)
      (at(kv, vv), o.at(kv, vv))
    } else (predict(x), o.predict(x))

  /** |v|² with v = L⁻¹kv: the prior variance the training data explains. */
  private def explained(kv: Array[Double]): Double = {
    val v = Lin.solveLower(f.chol, kv)
    Lin.dot(v, v)
  }

  /** The prediction from `kv = k(X, x)` and `vv = |L⁻¹kv|²`. */
  private def at(kv: Array[Double], vv: Double): Pred = {
    val muStd = Lin.dot(kv, alpha)
    val varStd = (f.kxx + f.noise - vv).max(1e-12)
    Pred(yMean + yStd * muStd, varStd * yStd * yStd)
  }

  /** Leave-one-out residuals yᵢ − μ₋ᵢ on the original scale, in closed form
    * from this fit's own factor (Rasmussen & Williams 2006, §5.4.2):
    * yStd · αᵢ / [K⁻¹]ᵢᵢ with [K⁻¹]ᵢᵢ = |L⁻¹eᵢ|². μ₋ᵢ keeps the full fit's
    * kernel, noise and target standardisation. */
  def looResiduals: Array[Double] = Array.tabulate(n) { i =>
    val e = new Array[Double](n)
    e(i) = 1.0
    val v = Lin.solveLower(f.chol, e)
    yStd * alpha(i) / Lin.dot(v, v)
  }

  def n: Int = f.xs.length
}

object Gp {
  /** Fit a GP on raw (unit-encoded) inputs and targets: [[fitAll]] with one
    * target. */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          kernelOf: Double => Kernel,
          noise: Double = 1e-4,
          lsGrid: Seq[Double] = Seq(0.5, 1.0, 2.0)): Gp =
    fitAll(xs, Seq(ys), kernelOf, noise, lsGrid).head

  /** Fit one GP per target in `yss`, all on the inputs `xs`. Each grid
    * kernel's gram matrix is built and factored once; each target then
    * selects its own lengthscale by marginal log-likelihood, so every GP
    * equals a separate [[fit]] on its target.
    *
    * @param kernelOf builds a kernel given a lengthscale multiplier from
    *                 `lsGrid`
    */
  def fitAll(xs: Array[Array[Double]], yss: Seq[Array[Double]],
             kernelOf: Double => Kernel,
             noise: Double = 1e-4,
             lsGrid: Seq[Double] = Seq(0.5, 1.0, 2.0)): Vector[Gp] = {
    require(xs.nonEmpty && yss.forall(_.length == xs.length), "empty or mismatched training data")
    val n = xs.length
    val targets = yss.toVector.map { ys =>
      val yMean = ys.sum / n
      val yStd = {
        val v = ys.map(y => (y - yMean) * (y - yMean)).sum / n
        math.sqrt(v).max(1e-8)
      }
      (ys.map(y => (y - yMean) / yStd), yMean, yStd)
    }

    val best = new Array[Gp](targets.size)
    val bestMll = Array.fill(targets.size)(Double.NegativeInfinity)
    for (ls <- lsGrid) {
      val f = new Factor(kernelOf(ls), xs, noise)
      for (t <- targets.indices) {
        val (yStdz, yMean, yStd) = targets(t)
        val a = Lin.choleskySolve(f.chol, yStdz)
        val mll = -0.5 * Lin.dot(yStdz, a) - 0.5 * f.logDet - 0.5 * n * math.log(2 * math.Pi)
        if (mll > bestMll(t)) {
          bestMll(t) = mll
          best(t) = new Gp(f, a, yMean, yStd)
        }
      }
    }
    best.toVector
  }
}

/** Meta-learning ensemble surrogate (Eq. 12): a similarity-weighted sum of
  * base surrogates from previous tasks plus the current-task surrogate.
  *
  *   μ_meta(x) = Σ wᵢ μᵢ(x),   σ²_meta(x) = Σ wᵢ² σᵢ²(x),  Σ wᵢ = 1.
  */
final class MetaEnsemble(bases: Vector[Surrogate], weights: Vector[Double]) extends Surrogate {
  require(bases.nonEmpty && bases.size == weights.size, "bases/weights mismatch")
  private val w: Vector[Double] = {
    val s = weights.map(_.max(0.0))
    val tot = s.sum
    if (tot <= 0) Vector.fill(s.size)(1.0 / s.size) else s.map(_ / tot)
  }

  def normalizedWeights: Vector[Double] = w

  def predict(x: Array[Double]): Pred = {
    var mu = 0.0
    var va = 0.0
    var i = 0
    while (i < bases.size) {
      val p = bases(i).predict(x)
      mu += w(i) * p.mean
      va += w(i) * w(i) * p.variance
      i += 1
    }
    Pred(mu, va.max(1e-12))
  }
}
