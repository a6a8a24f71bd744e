package repro.baselines

import scala.util.Random
import repro.core.{Objective, Observation, OnlineTuner, RunHistory, TunerSettings}
import repro.env.SparkClusterSim
import repro.importance.FAnova
import repro.model.{Gbdt, RandomForest}
import repro.space.{Config, ConfigSpace}
import repro.surrogate.{Gp, MixedKernel}

/** A black-box tuning strategy evaluated online against the simulator.
  * All baselines consume exactly the same per-iteration interface as the
  * paper's framework: suggest a config, observe one production run.
  */
trait BaselineTuner {
  def name: String
  /** Run `budget` online trials. `init` configs (e.g. the default/incumbent
    * configuration the job already runs with) are evaluated first and count
    * against the budget — every method starts from the same knowledge. */
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config] = Vector.empty): RunHistory
}

private object BaselineUtil {
  def observe(sim: SparkClusterSim, objective: Objective, h: RunHistory,
              c: Config, iter: Int): Observation = {
    val r = sim.run(c, iter)
    val o = Observation(c, r, objective.value(r), objective.feasible(r), iter)
    h.add(o)
    o
  }

  /** Log-objective targets for model fitting. */
  def logYs(h: RunHistory): Array[Double] =
    h.all.map(o => math.log(o.objective.max(1e-9))).toArray

  def xs(cs: ConfigSpace, h: RunHistory): Array[Array[Double]] =
    h.all.map(o => cs.toUnit(o.config)).toArray

  /** Simple generational GA over unit space searching `fitness` (lower is
    * better) — the search engine of RFHOC [7] and DAC [79]. `fitness` must
    * be pure: each config is scored once, and elites carry their score into
    * the next generation and the final pick. */
  def gaSearch(cs: ConfigSpace, seedPop: Vector[Config], fitness: Config => Double,
               rng: Random, generations: Int = 8, popSize: Int = 40): Config = {
    def score(configs: Vector[Config]) = configs.map(c => (c, fitness(c)))
    var pop = score((seedPop ++ cs.sampleRandom(rng, popSize)).take(popSize))
    var g = 0
    while (g < generations) {
      val elite = pop.sortBy(_._2).take(popSize / 4)
      val children = Vector.fill(popSize - elite.size) {
        val a = cs.toUnit(elite(rng.nextInt(elite.size))._1)
        val b = cs.toUnit(elite(rng.nextInt(elite.size))._1)
        val x = Array.tabulate(cs.dim)(i => if (rng.nextBoolean()) a(i) else b(i))
        // Mutation.
        var i = 0
        while (i < cs.dim) {
          if (rng.nextDouble() < 0.15)
            x(i) = if (cs.isCat(i)) rng.nextInt(cs.cardinality(i)).toDouble
                   else (x(i) + rng.nextGaussian() * 0.15).max(0.0).min(1.0)
          i += 1
        }
        cs.fromUnit(x)
      }
      pop = elite ++ score(children)
      g += 1
    }
    pop.minBy(_._2)._1
  }
}

/** Random Search [8]: a uniform random configuration per iteration. */
final class RandomSearch extends BaselineTuner {
  val name = "RandomSearch"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val rng = new Random(seed)
    val h = new RunHistory
    (0 until budget).foreach { i =>
      val c = if (i < init.size) init(i) else sim.cs.sampleRandom(rng)
      BaselineUtil.observe(sim, objective, h, c, i)
    }
    h
  }
}

/** CherryPick [2]: vanilla constrained BO (EIC) over the full space —
  * no space reduction, no safe region, no datasize awareness, no AGD,
  * and a plain random-candidate acquisition optimizer ("CherryPick does
  * not reduce the dimension of search space when training the surrogate
  * model, thus it cannot handle the large Spark search space well", §6.3).
  */
final class CherryPick extends BaselineTuner {
  val name = "CherryPick"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    val inits = init ++ cs.sampleLowDiscrepancy(3, seed + 2)
    var it = 0
    while (it < budget) {
      val c =
        if (it < inits.size.min(init.size + 3)) inits(it)
        else {
          val gp = Gp.fit(BaselineUtil.xs(cs, h), BaselineUtil.logYs(h),
            ls => MixedKernel.forSpace(cs, withDataSize = false, numLs = 0.5 * ls, catLs = ls),
            noise = 1e-3)
          val gpRt = Gp.fit(BaselineUtil.xs(cs, h),
            h.all.map(o => math.log(o.result.runtimeSec.max(1e-9))).toArray,
            ls => MixedKernel.forSpace(cs, withDataSize = false, numLs = 0.5 * ls, catLs = ls),
            noise = 1e-3)
          val yBest = math.log(h.bestObjective.max(1e-9))
          cs.sampleRandom(rng, 400).maxBy { cc =>
            val x = cs.toUnit(cc)
            val pr = if (objective.tMax.isPosInfinity) 1.0
                     else repro.bo.Acquisition.prFeasible(gpRt.predict(x), math.log(objective.tMax))
            pr * repro.bo.Acquisition.ei(gp.predict(x), yBest)
          }
        }
      BaselineUtil.observe(sim, objective, h, c, it)
      it += 1
    }
    h
  }
}

/** Tuneful [24]: online BO that prunes the space to the most influential
  * parameters after an exploration phase ("require 10 to 20 executions
  * before shrinking the search space", §6.3). Exploration runs full-space
  * BO; afterwards a *fixed* top-8 subspace (importance from its own
  * history) is searched. */
final class Tuneful(explore: Int = 10, subspaceSize: Int = 8) extends BaselineTuner {
  val name = "Tuneful"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    var free: Set[Int] = (0 until cs.dim).toSet
    val inits = init ++ cs.sampleLowDiscrepancy(3, seed)
    var it = 0
    while (it < budget) {
      val c =
        if (it < inits.size.min(init.size + 3)) inits(it)
        else {
          if (it == explore) {
            val imp = FAnova.importance(cs, h.all.map(_.config), BaselineUtil.logYs(h).toSeq,
              nMc = 100, nGrid = 6, seed = seed)
            free = imp.ranking.take(subspaceSize).toSet
          }
          suggestBo(cs, h, free, rng, objective)
        }
      BaselineUtil.observe(sim, objective, h, c, it)
      it += 1
    }
    h
  }

  private def suggestBo(cs: ConfigSpace, h: RunHistory, free: Set[Int],
                        rng: Random, objective: Objective): Config = {
    val gp = Gp.fit(BaselineUtil.xs(cs, h), BaselineUtil.logYs(h),
      ls => MixedKernel.forSpace(cs, withDataSize = false, numLs = 0.5 * ls, catLs = ls),
      noise = 1e-3)
    val yBest = math.log(h.bestObjective.max(1e-9))
    val anchor = h.best.map(_.config).getOrElse(cs.sampleRandom(rng))
    val cands = Vector.fill(300)(cs.sampleInSubspace(anchor, free, rng)) ++
      Vector.fill(60)(cs.sampleRandom(rng))
    cands.maxBy(c => repro.bo.Acquisition.ei(gp.predict(cs.toUnit(c)), yBest))
  }
}

/** LOCAT [76]: datasize-aware online BO for Spark SQL with importance-based
  * space pruning (fixed subspace once identified). Differs from Tuneful by
  * feeding the data size into the GP; differs from ours by lacking the
  * safe region, adaptive subspace sizing, AGD, and meta-learning. */
final class Locat(explore: Int = 10, subspaceSize: Int = 8) extends BaselineTuner {
  val name = "LOCAT"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    var free: Set[Int] = (0 until cs.dim).toSet
    def enc(c: Config, ds: Double): Array[Double] =
      cs.toUnit(c) :+ sim.spec.dataSizeUnit(ds)
    val inits = init ++ cs.sampleLowDiscrepancy(3, seed + 1)
    var it = 0
    while (it < budget) {
      val nextDs = sim.spec.dataSizeAt(it)
      val c =
        if (it < inits.size.min(init.size + 3)) inits(it)
        else {
          if (it == explore) {
            val imp = FAnova.importance(cs, h.all.map(_.config), BaselineUtil.logYs(h).toSeq,
              nMc = 100, nGrid = 6, seed = seed)
            free = imp.ranking.take(subspaceSize).toSet
          }
          val xs = h.all.map(o => enc(o.config, o.result.dataSizeGB)).toArray
          val gp = Gp.fit(xs, BaselineUtil.logYs(h),
            ls => MixedKernel.forSpace(cs, withDataSize = true, numLs = 0.5 * ls, catLs = ls),
            noise = 1e-3)
          val yBest = math.log(h.bestObjective.max(1e-9))
          val anchor = h.best.map(_.config).getOrElse(cs.sampleRandom(rng))
          val cands = Vector.fill(300)(cs.sampleInSubspace(anchor, free, rng)) ++
            Vector.fill(60)(cs.sampleRandom(rng))
          cands.maxBy(cc => repro.bo.Acquisition.ei(gp.predict(enc(cc, nextDs)), yBest))
        }
      BaselineUtil.observe(sim, objective, h, c, it)
      it += 1
    }
    h
  }
}

/** RFHOC [7]: random-forest performance models + genetic-algorithm search.
  * Designed for offline sample collection; here it receives the same
  * online budget (each GA proposal costs one production run), which is the
  * §6.3 finding — "ML models often need a large number of training
  * samples, and 30 iterations are not sufficient". */
final class Rfhoc extends BaselineTuner {
  val name = "RFHOC"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    var it = 0
    while (it < budget) {
      val c =
        if (it < init.size) init(it)
        else if (it < init.size + 6) cs.sampleRandom(rng) // sample-collection phase
        else {
          val rf = RandomForest.fit(BaselineUtil.xs(cs, h), BaselineUtil.logYs(h),
            nTrees = 24, seed = seed + it)
          val seedPop = h.all.sortBy(_.objective).take(5).map(_.config).toVector
          BaselineUtil.gaSearch(cs, seedPop, c => rf.predict(cs.toUnit(c)), rng)
        }
      BaselineUtil.observe(sim, objective, h, c, it)
      it += 1
    }
    h
  }
}

/** DAC [79]: datasize-aware hierarchical regression-tree models (boosted
  * trees here) + GA. Same online protocol as RFHOC, with the data size as
  * an extra model feature. */
final class Dac extends BaselineTuner {
  val name = "DAC"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    val h = new RunHistory
    def enc(c: Config, ds: Double): Array[Double] =
      cs.toUnit(c) :+ sim.spec.dataSizeUnit(ds)
    var it = 0
    while (it < budget) {
      val nextDs = sim.spec.dataSizeAt(it)
      val c =
        if (it < init.size) init(it)
        else if (it < init.size + 6) cs.sampleRandom(rng)
        else {
          val xs = h.all.map(o => enc(o.config, o.result.dataSizeGB)).toArray
          val model = Gbdt.fit(xs, BaselineUtil.logYs(h), nTrees = 40, maxDepth = 3,
            seed = seed + it)
          val seedPop = h.all.sortBy(_.objective).take(5).map(_.config).toVector
          BaselineUtil.gaSearch(cs, seedPop, cc => model.predict(enc(cc, nextDs)), rng)
        }
      BaselineUtil.observe(sim, objective, h, c, it)
      it += 1
    }
    h
  }
}

/** The paper's framework wrapped in the same baseline interface
  * (meta-learning off — §6.3 end-to-end comparisons don't use it). */
final class Ours(stopEi: Double = 0.0) extends BaselineTuner {
  val name = "Ours"
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory =
    new OnlineTuner(sim, objective, TunerSettings(seed = seed, stopEi = stopEi), init)
      .tune(budget).history
}

object Baselines {
  /** All §6.3 comparison methods, paper order. */
  def all: Vector[BaselineTuner] =
    Vector(new RandomSearch, new Rfhoc, new Dac, new CherryPick,
           new Tuneful, new Locat, new Ours)
}
