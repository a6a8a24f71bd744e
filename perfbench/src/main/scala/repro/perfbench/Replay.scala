package repro.perfbench

import scala.util.Random
import repro.bo.{Acquisition, Agd, SafeRegion, Subspace}
import repro.core.{Objective, Observation, RunHistory, TunerSettings}
import repro.env.SparkClusterSim
import repro.model.{Gbdt, RandomForest}
import repro.space.{Config, SparkParams}
import repro.surrogate.{Gp, MixedKernel, Pred, Surrogate}

/** One finished `OnlineTuner` session as the harness saw it: the inputs the
  * tuner was built from, the history it produced and its wall time. */
final case class Session(sim: SparkClusterSim, objective: Objective,
                         settings: TunerSettings, warmStart: Vector[Config],
                         startIter: Int, history: RunHistory, wallSec: Double) {
  def observations: Vector[Observation] = history.all
}

/** The traced pass's replay: feeds a recorded session back through the
  * public calls the controller makes at each iteration, with the same
  * inputs, and times each call as a span of its layer.
  *
  * The controller's private glue (encoding, kernel choice, candidate mix)
  * is mirrored from `OnlineTuner` so the calls see the inputs the tuner
  * gave them; the candidate draws use their own seeded stream, since the
  * tuner's random state is not visible from outside. Each AGD step is
  * deterministic and is checked against the recorded configuration
  * (`AgdMismatch`), so a copy that drifts from the tuner fails the run.
  */
object Replay {

  /** Layers whose spans make up a replayed session's time (fANOVA's own
    * forest fit is inside `importance.fanova`; `model.*` spans are extra
    * calls made only to time that layer on its own). */
  val SessionLayers: Seq[String] = Seq("surrogate.gp_fit", "bo.candidates", "bo.score",
    "bo.agd_step", "importance.fanova", "env.sim_run")

  /** Count of AGD iterations where the replay's step differs from the
    * recorded configuration. */
  val AgdMismatch = "check.replay.agd_mismatch"

  // Subspace's refit schedule (its constructor defaults, which the tuner uses).
  private val RefitEvery = 5
  private val MinHistoryForFanova = 8

  def session(s: Session, tr: Trace): Unit = {
    val cs = s.sim.cs
    val set = s.settings
    val spec = s.sim.spec
    def dsUnit(ds: Double) = (ds / (2.0 * spec.inputGB)).min(1.0).max(0.0)
    def encode(c: Config, ds: Double): Array[Double] =
      if (set.useDataSize) cs.toUnit(c) :+ dsUnit(ds) else cs.toUnit(c)
    def kernelOf(ls: Double) = MixedKernel.forSpace(cs, withDataSize = set.useDataSize,
      numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls)
    def logOf(v: Double) = math.log(v.max(1e-9))

    val subspace = new Subspace(cs, SparkParams.ExpertRanking, kInit = set.kInit,
      kMin = set.kMin, tauSucc = set.tauSucc, tauFail = set.tauFail)
    val agd = new Agd(cs, s.objective.beta, s.sim.resource, eta = set.agdEta)
    val safeRegion = new SafeRegion(set.gamma)
    val nInitConfigs = set.nInit.max(s.warmStart.size).min(s.warmStart.size + set.nInit)
    val rng = new Random(set.seed * 31 + 17)
    val h = new RunHistory
    var sinceRefit = 0

    s.observations.zipWithIndex.foreach { case (o, it) =>
      if (it >= nInitConfigs) {
        val obs = h.all
        val xs = obs.map(p => encode(p.config, p.result.dataSizeGB)).toArray
        val gpObj = tr.span("surrogate.gp_fit")(
          Gp.fit(xs, obs.map(p => logOf(p.objective)).toArray, kernelOf, noise = 1e-3))
        val gpRt = tr.span("surrogate.gp_fit")(
          Gp.fit(xs, obs.map(p => logOf(p.result.runtimeSec)).toArray, kernelOf, noise = 1e-3))
        val nextDs = spec.dataSizeAt(s.startIter + it)
        val best = h.best.getOrElse(obs.minBy(_.objective))
        if (set.useAgd && (obs.size + 1) % set.nAgd == 0) {
          val rtNatural = new Surrogate {
            def predict(x: Array[Double]): Pred = {
              val p = gpRt.predict(x)
              Pred(math.exp(p.mean), p.variance)
            }
          }
          val extra = if (set.useDataSize) Array(dsUnit(nextDs)) else Array.empty[Double]
          val step = tr.span("bo.agd_step")(agd.step(best.config, rtNatural, extra))
          // The AGD step is deterministic, so it must reproduce the tuner's
          // choice; a mismatch means the mirrored encoding, kernel or GP
          // fit has drifted from OnlineTuner's.
          if (cs.clip(step) != o.config) tr.count(Replay.AgdMismatch)
        } else {
          val anchors = {
            val feas = obs.filter(_.feasible)
            (if (feas.nonEmpty) feas else obs).sortBy(_.objective).map(_.config).distinct.take(3)
          }
          val free = if (set.useSubspace) subspace.freeDims else (0 until cs.dim).toSet
          val candidates = tr.span("bo.candidates") {
            val nSub = (set.nCandidates * 0.4).toInt
            val nLoc = (set.nCandidates * 0.5).toInt
            Vector.tabulate(nSub)(i => cs.sampleInSubspace(anchors(i % anchors.size), free, rng)) ++
              Vector.tabulate(nLoc)(i =>
                cs.perturbInSubspace(anchors(i % anchors.size), free, rng, sigma = 0.15)) ++
              Vector.fill(set.nCandidates - nSub - nLoc)(cs.sampleRandom(rng))
          }
          val yBest = logOf(best.objective)
          val logTMax = math.log(s.objective.tMax)
          val safeCount = tr.span("bo.score") {
            val scored = candidates.map { c =>
              val x = encode(c, nextDs)
              (c, gpObj.predict(x), gpRt.predict(x), s.sim.resource(c))
            }
            val resourceOk = scored.filter(_._4 <= s.objective.rMax)
            val pool0 = if (resourceOk.nonEmpty) resourceOk else scored
            val safe = pool0.filter { case (_, _, pRt, _) => safeRegion.isSafe(Seq((pRt, logTMax))) }
            val pool =
              if (!set.useSafety || s.objective.tMax.isPosInfinity) pool0
              else if (safe.nonEmpty) safe
              else pool0.sortBy(p => safeRegion.upperBound(p._3)).take((pool0.size / 4).max(1))
            pool.maxBy { case (_, pObj, pRt, _) =>
              val pr = if (!set.useEic) 1.0 else Acquisition.prFeasible(pRt, logTMax)
              pr * Acquisition.ei(pObj, yBest)
            }
            safe.size
          }
          tr.count("bo.candidates", candidates.size)
          tr.count("bo.safe", safeCount)
          val probe = candidates.take(100).map(encode(_, nextDs))
          val (_, t) = Trace.seconds(probe.foreach(gpObj.predict))
          tr.record("surrogate.gp_predict", t / probe.size)
        }
      }

      tr.span("env.sim_run")(s.sim.run(o.config, o.iter))
      val improved = o.objective < h.bestObjective && o.feasible
      h.add(o)
      val wasAgd = set.useAgd && (h.size % set.nAgd == 0)
      if (!wasAgd && it >= nInitConfigs) subspace.observe(improved)
      val configs = h.all.map(_.config)
      val ys = h.all.map(p => logOf(p.objective))
      sinceRefit += 1
      if (h.size >= MinHistoryForFanova && sinceRefit >= RefitEvery) {
        sinceRefit = 0
        val before = subspace.freeDims
        tr.span("importance.fanova")(subspace.maybeRefit(configs, ys, set.seed + it))
        if (subspace.freeDims != before) tr.count("importance.fanova.useful")
        forest(configs.map(cs.toUnit).toArray, ys.toArray, 24, set.seed + it, tr)
      } else subspace.maybeRefit(configs, ys, set.seed + it)
    }
  }

  /** Time one random-forest fit and its per-point prediction. */
  def forest(xs: Array[Array[Double]], ys: Array[Double], nTrees: Int, seed: Long,
             tr: Trace): Unit = {
    val rf = tr.span("model.rf_fit")(RandomForest.fit(xs, ys, nTrees = nTrees, seed = seed))
    val rng = new Random(seed)
    val probe = Array.fill(100)(Array.fill(xs(0).length)(rng.nextDouble()))
    val (_, t) = Trace.seconds(probe.foreach(rf.predict))
    tr.record("model.rf_predict", t / probe.length)
  }

  /** Replay the model fits of an RFHOC history (random forest on the unit
    * configs) at every model-driven iteration. */
  def rfhoc(s: Session, nInit: Int, tr: Trace): Unit = {
    val cs = s.sim.cs
    val obs = s.observations
    (nInit + 6 until obs.size).foreach { it =>
      val prefix = obs.take(it)
      forest(prefix.map(o => cs.toUnit(o.config)).toArray,
        prefix.map(o => math.log(o.objective.max(1e-9))).toArray, 24, s.settings.seed + it, tr)
    }
  }

  /** Replay the boosted-tree fits of a DAC history (unit configs plus the
    * normalised data size). */
  def dac(s: Session, nInit: Int, tr: Trace): Unit = {
    val cs = s.sim.cs
    val obs = s.observations
    (nInit + 6 until obs.size).foreach { it =>
      val prefix = obs.take(it)
      val xs = prefix.map(o => cs.toUnit(o.config) :+
        (o.result.dataSizeGB / (2.0 * s.sim.spec.inputGB)).min(1.0).max(0.0)).toArray
      tr.span("model.gbdt_fit")(Gbdt.fit(xs, prefix.map(o => math.log(o.objective.max(1e-9))).toArray,
        nTrees = 40, maxDepth = 3, seed = s.settings.seed + it))
    }
  }
}
