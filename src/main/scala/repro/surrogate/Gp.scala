package repro.surrogate

import repro.linalg.{GrowingCholesky, Lin}

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

/** Grid lengthscale `ls`'s kernel bound to the training inputs, with the
  * Cholesky factor L of K + τ²I and log|K + τ²I|. GPs fitted together from
  * one [[GpState]] that select the same lengthscale share one instance.
  */
private final class Factor(val ls: Double, val rows: KernelRows, val noise: Double,
                           val chol: Array[Array[Double]], val logDet: Double) extends Serializable {
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

/** The GP fit state of one tuning session: its encoded training points and,
  * for each lengthscale of [[Gp.LsGrid]], the lower triangle of K + τ²I and
  * its Cholesky factor ([[GrowingCholesky]], which keeps the jitter in
  * use). A new point adds one kernel row per lengthscale, with the raw
  * distances computed once for all of them, and one row to each factor, so
  * a suggestion after n runs costs O(n²) per lengthscale instead of a
  * fresh O(n³) factorisation. [[Gp.fitAll]] is a fresh state fed its points
  * in order, so [[fit]] equals it on the same points to the bit.
  *
  * One session owns one state; it is not safe to share between threads.
  */
final class GpState(kernelOf: Double => MixedKernel, noise: Double) extends Serializable {
  private val kernels = Gp.LsGrid.map(kernelOf).toArray
  require(kernels.forall(_.sameDims(kernels(0))), "a lengthscale family reads one set of dims")
  private val keys = scala.collection.mutable.ArrayBuffer.empty[AnyRef]
  private var capacity = 16
  private var x = Columns.empty(kernels(0), capacity)
  private var factors = Array.fill(kernels.length)(new GrowingCholesky)

  /** The number of points the state holds. */
  def n: Int = keys.length

  /** Brings the state to the points of `obs`, each encoded by `encode`.
    * When the points it holds came from a prefix of `obs`, the same
    * objects in the same order, it adds only the rest; otherwise, as for
    * another session's history, it starts over. */
  def update[A <: AnyRef](obs: scala.collection.IndexedSeq[A])(encode: A => Array[Double]): this.type = {
    var p = 0
    while (p < n && p < obs.length && (obs(p) eq keys(p))) p += 1
    if (p < n) clear()
    try { while (n < obs.length) add(obs(n), encode(obs(n))) }
    catch { case e: ArithmeticException => clear(); throw e }
    this
  }

  /** Empties the state. GPs fitted before keep their own columns and rows. */
  private def clear(): Unit = {
    keys.clear()
    x = Columns.empty(kernels(0), capacity)
    factors = Array.fill(kernels.length)(new GrowingCholesky)
  }

  private def add(key: AnyRef, point: Array[Double]): Unit = {
    val i = n
    if (i == capacity) { capacity *= 2; x = x.grown(capacity) }
    x.set(i, point, kernels(0))
    // Row i of each gram: k(X(i), X(q)) for q ≤ i, the entries
    // KernelRows.block(X) puts at (i, q), then τ² on the diagonal.
    val rows = Array.fill(kernels.length)(new Array[Double](i + 1))
    new Distances(i + 1).rowInto(kernels, x, i, x, rows)
    var r = 0
    while (r < rows.length) {
      rows(r)(i) += noise
      factors(r).extend(rows(r))
      r += 1
    }
    keys += key
  }

  /** One GP per target in `yss`, each of n values in point order. Each
    * target selects its own lengthscale by marginal log-likelihood; GPs
    * that select the same one share its factor. */
  def fit(yss: Seq[Array[Double]]): Vector[Gp] = {
    require(n > 0 && yss.forall(_.length == n), "empty or mismatched training data")
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
    for (r <- kernels.indices) {
      val g = factors(r)
      val f = new Factor(Gp.LsGrid(r), new KernelRows(kernels(r), x, n), noise, g.factor, g.logDet)
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

  /** Lengthscale `r`'s factor, for the tests. */
  private[surrogate] def factor(r: Int): GrowingCholesky = factors(r)
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
final class Gp private[surrogate] (private[surrogate] val f: Factor,
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
    * kernel block k(X, C) and one solve V = L⁻¹k(X, C) serve both. When
    * they selected different lengthscales on the same points, the two
    * kernel blocks share their raw distances. */
  def predictPair(o: Gp, c: Block): (Array[Pred], Array[Pred]) =
    if (f eq o.f) {
      val k = f.rows.block(c)
      val (mu, muO) = (means(k), o.means(k))
      val vv = f.explained(k)
      (at(mu, vv), o.at(muO, vv))
    } else if (f.rows.sharesPoints(o.f.rows)) {
      val Array(k, kO) = KernelRows.blocks(Array(f.rows, o.f.rows), c)
      (at(means(k), f.explained(k)), o.at(o.means(kO), o.f.explained(kO)))
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

  def n: Int = f.rows.n
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

  /** Fit one GP per target in `yss`, all on the inputs `xs`: a fresh
    * [[GpState]] fed `xs` in order. Each grid kernel's gram matrix is built
    * and factored once; each target then selects its own lengthscale by
    * marginal log-likelihood, so every GP equals a separate [[fit]] on its
    * target.
    *
    * @param kernelOf builds a kernel given a lengthscale multiplier from
    *                 [[LsGrid]]
    */
  def fitAll(xs: Array[Array[Double]], yss: Seq[Array[Double]],
             kernelOf: Double => MixedKernel,
             noise: Double = 1e-4): Vector[Gp] =
    new GpState(kernelOf, noise).update(xs)(identity).fit(yss)
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
