package repro.core

import scala.util.Random
import repro.bo.{Acquisition, Agd, SafeRegion, Subspace}
import repro.env.SparkClusterSim
import repro.meta.TaskSimilarity
import repro.space.{Config, ConfigSpace, SparkParams}
import repro.surrogate.{Block, Gp, MetaEnsemble, MixedKernel, Pred, Surrogate}

/** Feature switches + hyper-parameters of the tuning framework.
  *
  * Defaults are the paper's (§4: τ_succ=3, τ_fail=5, K_min=4, K_init=10,
  * N_AGD=5, η=0.001; §4.2: γ; §3.3: low-discrepancy init, EI-based stop).
  * Baselines and ablations are expressed by flipping the `use*` flags:
  * the BO baselines of §6.3 (CherryPick, Tuneful, LOCAT) are presets of
  * this loop (`repro.baselines.Baselines`), Tuneful/LOCAT also setting
  * `freezeSubspaceAt`, `kInit` and `nCandidates`.
  *
  * @param useLocalMoves    half of the candidates are TuRBO-style local
  *                         moves around the incumbents; when off, that
  *                         share is drawn uniformly in the sub-space too
  * @param freezeSubspaceAt when > 0, the sub-space is all dimensions until
  *                         this iteration, then fixed to the top-`kInit`
  *                         parameters of one fANOVA fit on the history so
  *                         far and never resized or refit (Tuneful/LOCAT:
  *                         explore first, then prune for good)
  */
final case class TunerSettings(
    nInit: Int = 3,
    nCandidates: Int = 400,
    useSafety: Boolean = true,
    useEic: Boolean = true,          // constraint-weighted acquisition (Eq. 6)
    useSubspace: Boolean = true,
    useAgd: Boolean = true,
    useDataSize: Boolean = true,
    useLocalMoves: Boolean = true,
    gamma: Double = 0.7,
    nAgd: Int = 5,
    agdEta: Double = 0.001,
    kInit: Int = 10, kMin: Int = 4, tauSucc: Int = 3, tauFail: Int = 5,
    freezeSubspaceAt: Int = 0,
    stopEi: Double = 0.0,            // >0 enables the §3.3 stopping criterion
    seed: Long = 0L)

/** The OnlineTune controller (§3.1). One instance is one tuning session
  * against a (simulated) data platform: `Controller.run` asks it for each
  * periodic production run's configuration and tells it the outcome; no
  * offline evaluations happen anywhere (the online paradigm, C.2).
  *
  * Surrogates are fit on log-runtime / log-objective: both are positive
  * with multiplicative noise, and the 10%-EI stopping rule of §3.3 becomes
  * a clean absolute threshold in log space.
  */
final class OnlineTuner(sim: SparkClusterSim,
                        objective: Objective,
                        settings: TunerSettings = TunerSettings(),
                        warmStart: Vector[Config] = Vector.empty,
                        metaBases: Vector[(Surrogate, Double)] = Vector.empty) extends Controller {

  private val cs: ConfigSpace = sim.cs
  private val rng = new Random(new UnsyncRandom(settings.seed))
  private val safeRegion = new SafeRegion(settings.gamma)

  val subspace = new Subspace(cs, SparkParams.ExpertRanking,
    kInit = settings.kInit, kMin = settings.kMin,
    tauSucc = settings.tauSucc, tauFail = settings.tauFail)
  val agd = new Agd(cs, objective.beta, sim.resource, eta = settings.agdEta)
  /** The first runs' configs, served before any model is fit: the warm
    * starts, then low-discrepancy samples up to `nInit` runs. */
  private val initConfigs: Vector[Config] = {
    val lds = cs.sampleLowDiscrepancy(settings.nInit, settings.seed)
    (warmStart ++ lds).take(settings.nInit.max(warmStart.size))
  }

  /** The coordinates a run on `dsGB` GB adds after the config's: the
    * normalized data size when the datasize-aware surrogate is enabled
    * (§3.3 Dynamic Workload Support), else none. */
  private def dsCoords(dsGB: Double): Array[Double] =
    if (settings.useDataSize) Array(sim.spec.dataSizeUnit(dsGB)) else Array.emptyDoubleArray

  /** Unit-encode a config run on `dsGB` GB. */
  private def encode(c: Config, dsGB: Double): Array[Double] = cs.toUnit(c) ++ dsCoords(dsGB)

  private val kernelOf = MixedKernel.family(cs, withDataSize = settings.useDataSize)

  /** Weight of the current-task surrogate in the Eq. 12 ensemble [25]:
    * rank agreement of its leave-one-out means with the targets, floored
    * for cold start. The means come in closed form from the fit itself. */
  private def currentTaskWeight(gp: Gp, ys: Array[Double]): Double =
    if (ys.length < 6) 0.3
    else {
      val r = gp.looResiduals
      val loo = ys.indices.map(i => ys(i) - r(i))
      ((TaskSimilarity.kendallTau(loo, ys.toIndexedSeq) + 1.0) / 2.0).max(0.1)
    }

  /** Whether the session's run number `r` (1-based) is an AGD step. */
  private def isAgdRun(r: Int): Boolean = settings.useAgd && r % settings.nAgd == 0

  /** Run the online tuning session for `budget` production executions
    * (see `Controller.run` for `startIter`). */
  def tune(budget: Int, startIter: Int = 0): TuneOutcome =
    Controller.run(this, sim, objective, budget, startIter)

  override def observe(history: RunHistory, improved: Boolean): Unit = {
    val n = history.size
    def logYs = history.all.map(o => math.log(o.objective.max(1e-9)))
    // AGD iterations are not sub-space proposals — the TuRBO-style
    // streak counters only track the BO acquisitions (§4.1).
    if (!isAgdRun(n) && n > initConfigs.size) subspace.observe(improved)
    // The ranking is only read when the sub-space is on, and a frozen
    // sub-space replaces it wholesale; fANOVA draws from its own seed,
    // so skipping it leaves the history unchanged.
    if (settings.useSubspace && settings.freezeSubspaceAt == 0)
      subspace.maybeRefit(history.all.map(_.config), logYs, settings.seed + n - 1)
    if (settings.useSubspace && n == settings.freezeSubspaceAt)
      subspace.freeze(history.all.map(_.config), logYs, settings.seed + n)
  }

  /** The initial design, then Algorithm 2: one configuration for a run on
    * `dsGB` GB of input. `None` when the stopping criterion fires (§3.3). */
  def suggest(history: RunHistory, dsGB: Double): Option[Config] = {
    if (history.size < initConfigs.size) return Some(initConfigs(history.size))
    val obs = history.all
    val xs = obs.map(o => encode(o.config, o.result.dataSizeGB)).toArray
    val yObj = obs.map(o => math.log(o.objective.max(1e-9))).toArray
    val yRt = obs.map(o => math.log(o.result.runtimeSec.max(1e-9))).toArray

    // One factorisation per grid lengthscale serves both GPs; the runtime
    // GP then costs only its own triangular solves, read or not.
    val Vector(gpObjLocal, gpRt) = Gp.fitAll(xs, Seq(yObj, yRt), kernelOf, noise = 1e-3)

    val ranked = RunHistory.ranked(obs)
    val best = ranked.head
    val yBestLog = math.log(best.objective.max(1e-9))
    // This run's data-size coordinate, shared by the AGD step and every
    // candidate.
    val dsExtra = dsCoords(dsGB)

    // --- AGD branch (every N_AGD iterations; Algorithm 2 lines 2–4) -----
    if (isAgdRun(obs.size + 1)) {
      val rtForAgd = new Surrogate { // expose runtime on the natural scale
        private def natural(p: Pred) = Pred(math.exp(p.mean), p.variance)
        def predict(x: Array[Double]): Pred = natural(gpRt.predict(x))
        override def predictBlock(c: Block): Array[Pred] = gpRt.predictBlock(c).map(natural)
      }
      return Some(cs.clip(agd.step(best.config, rtForAgd, dsExtra)))
    }

    // --- BO branch: sub-space ∩ safe region, EIC argmax (lines 6–8) ----
    val objSurrogate: Surrogate =
      if (metaBases.isEmpty) gpObjLocal
      else new MetaEnsemble(metaBases.map(_._1) :+ gpObjLocal,
                            metaBases.map(_._2) :+ currentTaskWeight(gpObjLocal, yObj))

    // Non-subspace dims are pinned to an anchor; using the top-3 configs
    // (not just the incumbent) as anchors avoids locking a pathological
    // pinned value in place for the rest of the session.
    val anchors: Vector[Config] = ranked.map(_.config).distinct.take(3)
    val free: Set[Int] =
      if (settings.useSubspace && obs.size >= settings.freezeSubspaceAt) subspace.freeDims
      else (0 until cs.dim).toSet
    val candidates = {
      // TuRBO-style mixture inside the sub-space: uniform coverage of the
      // free dims plus local moves around the incumbents, with a small
      // global-restart stream.
      val nLoc = if (settings.useLocalMoves) (settings.nCandidates * 0.5).toInt else 0
      val nSub = (settings.nCandidates * 0.4).toInt + (settings.nCandidates * 0.5).toInt - nLoc
      val nGlob = settings.nCandidates - nSub - nLoc
      cs.drawPool(anchors, free, rng, nSub, nLoc, nGlob, extra = dsExtra)
    }

    // The whole pool is scored as one block. Without a reader of the
    // runtime prediction, its slot holds the objective's. An unbounded
    // T_max reads as satisfied in both readers.
    val logTMax = math.log(objective.tMax)
    val readsRt = settings.useSafety || settings.useEic
    val block = Block.of(candidates.unit)
    val (pObjs, pRts) =
      if (!readsRt) { val p = objSurrogate.predictBlock(block); (p, p) }
      else if (objSurrogate eq gpObjLocal) gpObjLocal.predictPair(gpRt, block)
      else (objSurrogate.predictBlock(block), gpRt.predictBlock(block))

    // Resource constraint is analytic (white-box, §4.3); runtime
    // constraint via safe region. Candidates are indices into the pool.
    val all = 0 until candidates.size
    val resourceOk = all.filter(j => sim.resourceOfRow(candidates.raw(j)) <= objective.rMax)
    val pool0 = if (resourceOk.nonEmpty) resourceOk else all
    val pool =
      if (!settings.useSafety) pool0
      else {
        val safe = pool0.filter(j => safeRegion.isSafe(Seq((pRts(j), logTMax))))
        if (safe.nonEmpty) safe
        else {
          // Cold start / empty safe set: expand conservatively from the
          // incumbent instead of free-ranging — keep only the quartile
          // with the lowest runtime upper bound (SafeOpt-style, [69]).
          val ranked = pool0.sortBy(j => safeRegion.upperBound(pRts(j)))
          ranked.take((ranked.size / 4).max(1))
        }
      }

    val withEic = pool.map { j =>
      (j, Acquisition.eic(pObjs(j), yBestLog, if (settings.useEic) Seq((pRts(j), logTMax)) else Nil))
    }
    val (jBest, maxEic) = withEic.maxBy(_._2)
    if (settings.stopEi > 0 && obs.size > settings.nInit && maxEic < settings.stopEi) None
    else Some(candidates.config(jBest))
  }

  /** §3.3 restarting criterion: continuous degradation — the incumbent's
    * recent actual results exceed the expected objective, the incumbent of
    * the runs before them (`RunHistory.ranked`: feasible first), by `tol`
    * for `window` consecutive runs. */
  def degradationDetected(history: RunHistory, window: Int = 3, tol: Double = 0.3): Boolean = {
    val obs = history.all
    if (obs.size < window + 1) return false
    val recent = obs.takeRight(window)
    val expected = RunHistory.ranked(obs.dropRight(window)).head.objective
    recent.forall(_.objective > expected * (1.0 + tol))
  }
}
