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

/** Gaussian-process regression surrogate (Eq. 2) with fixed-form mixed
  * kernels (Eq. 4) and white-noise level τ².
  *
  * Targets are standardized internally; predictions are de-standardized.
  * Fitting selects the kernel lengthscale scale from a small candidate
  * grid by marginal likelihood — the paper's motivation for GPs is that
  * they are effectively hyperparameter-free, which this preserves.
  */
final class Gp private (private val kernel: Kernel,
                        private val xs: Array[Array[Double]],
                        alpha: Array[Double],
                        chol: Array[Array[Double]],
                        yMean: Double, yStd: Double,
                        noise: Double) extends Surrogate {

  /** Predictive mean and variance at `x` (Eq. 2), on the original scale. */
  def predict(x: Array[Double]): Pred = predictAt(x, kernelVector(x))

  /** k(X, x): the kernel between every training point and `x`. */
  def kernelVector(x: Array[Double]): Array[Double] = {
    val n = xs.length
    val kv = new Array[Double](n)
    var i = 0
    while (i < n) { kv(i) = kernel(xs(i), x); i += 1 }
    kv
  }

  /** [[predict]] at `x` given `kv = k(X, x)`, which may come from another
    * GP's [[kernelVector]] when [[sharesKernel]] holds. `kv` is only read. */
  def predictAt(x: Array[Double], kv: Array[Double]): Pred = {
    val muStd = Lin.dot(kv, alpha)
    val v = Lin.solveLower(chol, kv)
    val varStd = (kernel(x, x) + noise - Lin.dot(v, v)).max(1e-12)
    Pred(yMean + yStd * muStd, varStd * yStd * yStd)
  }

  def n: Int = xs.length

  /** True when `o` holds the same training-array and kernel instances, so
    * its [[kernelVector]] at any point equals this GP's. */
  def sharesKernel(o: Gp): Boolean = (xs eq o.xs) && (kernel eq o.kernel)
}

object Gp {
  /** Fit a GP on raw (unit-encoded) inputs and targets.
    *
    * @param kernelOf builds a kernel given a lengthscale multiplier; the
    *                 multiplier is selected from `lsGrid` by marginal
    *                 log-likelihood.
    */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          kernelOf: Double => Kernel,
          noise: Double = 1e-4,
          lsGrid: Seq[Double] = Seq(0.5, 1.0, 2.0)): Gp = {
    require(xs.nonEmpty && xs.length == ys.length, "empty or mismatched training data")
    val n = xs.length
    val yMean = ys.sum / n
    val yStd = {
      val v = ys.map(y => (y - yMean) * (y - yMean)).sum / n
      math.sqrt(v).max(1e-8)
    }
    val yStdz = ys.map(y => (y - yMean) / yStd)

    var best: Gp = null
    var bestMll = Double.NegativeInfinity
    for (ls <- lsGrid) {
      val k = kernelOf(ls)
      val gram = Array.tabulate(n, n)((i, j) => k(xs(i), xs(j)) + (if (i == j) noise else 0.0))
      val (l, _) = Lin.cholesky(gram)
      val a = Lin.choleskySolve(l, yStdz)
      val mll = -0.5 * Lin.dot(yStdz, a) - 0.5 * Lin.logDet(l) - 0.5 * n * math.log(2 * math.Pi)
      if (mll > bestMll) {
        bestMll = mll
        best = new Gp(k, xs, a, l, yMean, yStd, noise)
      }
    }
    best
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
