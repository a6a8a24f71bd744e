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

  /** [[predict]] at every point of `c`, in order. */
  def predictBlock(c: Block): Array[Pred] = Array.tabulate(c.m)(j => predict(c.point(j)))
}

/** One grid lengthscale's kernel bound to the training inputs, with the
  * Cholesky factor L of K + τ²I. GPs fitted together on the same inputs
  * that select the same lengthscale share one instance.
  */
private final class Factor private (val rows: KernelRows, val xs: Array[Array[Double]],
                                    val noise: Double,
                                    val chol: Array[Array[Double]]) extends Serializable {
  val logDet: Double = Lin.logDet(chol)

  /** |L⁻¹k(X, C(j))|² for every column j of the n×m kernel block `k`: the
    * prior variance the training data explains at each point. Overwrites
    * `k` with L⁻¹k. */
  def explained(k: Array[Array[Double]]): Array[Double] = {
    Lin.solveLowerBlock(chol, k)
    val vv = new Array[Double](k(0).length)
    k.foreach { vi =>
      var q = 0
      while (q < vv.length) { vv(q) += vi(q) * vi(q); q += 1 }
    }
    vv
  }
}

private object Factor {
  def apply(kernel: MixedKernel, xs: Array[Array[Double]], noise: Double): Factor = {
    val rows = kernel.rows(xs)
    // K(p, q) at gram(p)(q). Lin.cholesky reads only the lower triangle,
    // and the gram is symmetric to the bit: entries (p, q) and (q, p) see
    // ±(x_p − x_q), dimension by dimension in the same order.
    val gram = rows.block(Block.of(xs))
    var i = 0
    while (i < xs.length) { gram(i)(i) += noise; i += 1 }
    new Factor(rows, xs, noise, Lin.cholesky(gram)._1)
  }
}

/** Gaussian-process regression surrogate (Eq. 2) with fixed-form mixed
  * kernels (Eq. 4) and white-noise level τ².
  *
  * Targets are standardized internally; predictions are de-standardized.
  * Fitting selects the kernel lengthscale scale from a small candidate
  * grid by marginal likelihood — the paper's motivation for GPs is that
  * they are effectively hyperparameter-free, which this preserves.
  *
  * Every prediction is a block prediction: one kernel block k(X, C), one
  * sweep for the means, then one forward solve over the block in place.
  * Per point, the sums run in the same index order as `Lin.solveLower` and
  * `Lin.dot`.
  */
final class Gp private (private[surrogate] val f: Factor,
                        alpha: Array[Double],
                        yMean: Double, yStd: Double) extends Surrogate {

  /** Predictive mean and variance at `x` (Eq. 2), on the original scale:
    * the block of one point. */
  def predict(x: Array[Double]): Pred = predictBlock(Block.of(Array(x)))(0)

  override def predictBlock(c: Block): Array[Pred] = {
    val k = f.rows.block(c)
    val mu = means(k)
    at(mu, f.explained(k))
  }

  /** ([[predictBlock]], `o.predictBlock`) on `c`. When both GPs were fitted
    * together and selected the same lengthscale, they share L, so one
    * kernel block k(X, C) and one solve V = L⁻¹k(X, C) serve both. */
  def predictPair(o: Gp, c: Block): (Array[Pred], Array[Pred]) =
    if (f eq o.f) {
      val k = f.rows.block(c)
      val (mu, muO) = (means(k), o.means(k))
      val vv = f.explained(k)
      (at(mu, vv), o.at(muO, vv))
    } else (predictBlock(c), o.predictBlock(c))

  /** The standardised means k(X, C(j))·α from the kernel block `k`. */
  private def means(k: Array[Array[Double]]): Array[Double] = {
    val mu = new Array[Double](k(0).length)
    var i = 0
    while (i < n) {
      val ki = k(i)
      val a = alpha(i)
      var q = 0
      while (q < mu.length) { mu(q) += ki(q) * a; q += 1 }
      i += 1
    }
    mu
  }

  /** The predictions from the standardised means `mu` and
    * `vv(j) = |L⁻¹k(X, C(j))|²`. */
  private def at(mu: Array[Double], vv: Array[Double]): Array[Pred] = {
    val m = vv.length
    val out = new Array[Pred](m)
    var q = 0
    while (q < m) {
      val varStd = (1.0 + f.noise - vv(q)).max(1e-12) // k(x, x) = 1
      out(q) = Pred(yMean + yStd * mu(q), varStd * yStd * yStd)
      q += 1
    }
    out
  }

  /** Leave-one-out residuals yᵢ − μ₋ᵢ on the original scale, in closed form
    * from this fit's own factor (Rasmussen & Williams 2006, §5.4.2):
    * yStd · αᵢ / [K⁻¹]ᵢᵢ with [K⁻¹]ᵢᵢ = |L⁻¹eᵢ|², all n from one solve of
    * the identity block. μ₋ᵢ keeps the full fit's kernel, noise and target
    * standardisation. */
  def looResiduals: Array[Double] = {
    val kInvDiag = f.explained(Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0))
    Array.tabulate(n)(i => yStd * alpha(i) / kInvDiag(i))
  }

  def n: Int = f.xs.length
}

object Gp {
  /** The lengthscale multipliers every fit tries, in order (a tie keeps the first). */
  val LsGrid: Seq[Double] = Seq(0.5, 1.0, 2.0)

  /** Fit a GP on raw (unit-encoded) inputs and targets: [[fitAll]] with one
    * target. */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          kernelOf: Double => MixedKernel,
          noise: Double = 1e-4): Gp =
    fitAll(xs, Seq(ys), kernelOf, noise).head

  /** Fit one GP per target in `yss`, all on the inputs `xs`. Each grid
    * kernel's gram matrix is built and factored once; each target then
    * selects its own lengthscale by marginal log-likelihood, so every GP
    * equals a separate [[fit]] on its target.
    *
    * @param kernelOf builds a kernel given a lengthscale multiplier from
    *                 [[LsGrid]]
    */
  def fitAll(xs: Array[Array[Double]], yss: Seq[Array[Double]],
             kernelOf: Double => MixedKernel,
             noise: Double = 1e-4): Vector[Gp] = {
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
    for (ls <- LsGrid) {
      val f = Factor(kernelOf(ls), xs, noise)
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

  def predict(x: Array[Double]): Pred = mix(i => bases(i).predict(x))

  override def predictBlock(c: Block): Array[Pred] = {
    val preds = bases.map(_.predictBlock(c))
    Array.tabulate(c.m)(j => mix(i => preds(i)(j)))
  }

  /** The Eq. 12 mixture of the base predictions `p(i)`, summed in base order. */
  private def mix(p: Int => Pred): Pred = {
    var mu = 0.0
    var va = 0.0
    var i = 0
    while (i < bases.size) {
      val pi = p(i)
      mu += w(i) * pi.mean
      va += w(i) * w(i) * pi.variance
      i += 1
    }
    Pred(mu, va.max(1e-12))
  }
}
