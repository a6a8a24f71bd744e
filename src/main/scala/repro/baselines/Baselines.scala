package repro.baselines

import scala.util.Random
import repro.core.{Controller, Objective, OnlineTuner, RunHistory, TunerSettings}
import repro.env.SparkClusterSim
import repro.model.{Gbdt, RandomForest}
import repro.space.{Config, ConfigSpace}

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
  final val Generations = 8
  final val PopSize = 40

  /** Generational GA over unit space, [[PopSize]] configs for [[Generations]]
    * generations, searching `fitness` (lower is better) — the search engine
    * of RFHOC [7] and DAC [79]. `fitness` must
    * be pure: each config is scored once, and elites carry their score into
    * the next generation and the final pick. */
  def gaSearch(cs: ConfigSpace, seedPop: Vector[Config], fitness: Config => Double, rng: Random): Config = {
    def score(configs: Vector[Config]) = configs.map(c => (c, fitness(c)))
    var pop = score((seedPop ++ cs.sampleRandom(rng, PopSize)).take(PopSize))
    var g = 0
    while (g < Generations) {
      val elite = pop.sortBy(_._2).take(PopSize / 4)
      val children = Vector.fill(PopSize - elite.size) {
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
    Controller.run((_, _) => Some(sim.cs.sampleRandom(rng)), sim, objective, budget, init).history
  }
}

/** RFHOC [7] and DAC [79]: a performance model fit on the history plus
  * genetic-algorithm search over it. Designed for offline sample
  * collection; here each GA proposal costs one production run, after six
  * random samples — the §6.3 finding that "ML models often need a large
  * number of training samples, and 30 iterations are not sufficient".
  *
  * @param fit          fits a model on (inputs, log objectives, seed)
  * @param withDataSize appends the normalised data size to the model input
  */
final class ModelGaTuner(val name: String, withDataSize: Boolean,
                         fit: (Array[Array[Double]], Array[Double], Long) => Array[Double] => Double)
    extends BaselineTuner {
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory = {
    val cs = sim.cs
    val rng = new Random(seed)
    def enc(c: Config, ds: Double): Array[Double] =
      if (withDataSize) cs.toUnit(c) :+ sim.spec.dataSizeUnit(ds) else cs.toUnit(c)
    def suggest(h: RunHistory, nextDs: Double): Option[Config] = Some(
      if (h.size < init.size + 6) cs.sampleRandom(rng) // sample-collection phase
      else {
        val model = fit(h.all.map(o => enc(o.config, o.result.dataSizeGB)).toArray,
          h.all.map(o => math.log(o.objective.max(1e-9))).toArray, seed + h.size)
        val seedPop = h.all.sortBy(_.objective).take(5).map(_.config)
        BaselineUtil.gaSearch(cs, seedPop, cc => model(enc(cc, nextDs)), rng)
      })
    Controller.run(suggest, sim, objective, budget, init).history
  }
}

/** A BO method of §6.3 as a preset of the paper's own loop (`OnlineTuner`,
  * meta-learning off): the Table 1 baselines are capability subsets of it. */
final class PresetTuner(val name: String, preset: TunerSettings) extends BaselineTuner {
  def tune(sim: SparkClusterSim, objective: Objective, budget: Int, seed: Long,
           init: Vector[Config]): RunHistory =
    new OnlineTuner(sim, objective, preset.copy(seed = seed), init).tune(budget).history
}

object Baselines {
  /** What the BO baselines lack of ours: the safe region, AGD, the data-size
    * input and local moves around the incumbents (uniform candidates). */
  private val boBase = TunerSettings(useSafety = false, useAgd = false,
    useDataSize = false, useLocalMoves = false)

  /** CherryPick [2]: constrained BO (EIC) over the full space ("CherryPick
    * does not reduce the dimension of search space", §6.3). */
  val CherryPick: TunerSettings = boBase.copy(useSubspace = false)

  /** Tuneful [24]: plain-EI BO over the full space for 10 runs ("10 to 20
    * executions before shrinking the search space", §6.3), then over a
    * fixed top-8 sub-space from fANOVA on its own history. */
  val Tuneful: TunerSettings = boBase.copy(useEic = false, nCandidates = 360, kInit = 8,
    freezeSubspaceAt = 10)

  /** LOCAT [76]: Tuneful's pruning with the data size as a surrogate input. */
  val Locat: TunerSettings = Tuneful.copy(useDataSize = true)

  /** All §6.3 comparison methods, paper order. */
  def all: Vector[BaselineTuner] = Vector(
    new RandomSearch,
    new ModelGaTuner("RFHOC", withDataSize = false,
      (xs, ys, s) => RandomForest.fit(xs, ys, nTrees = 24, seed = s).predict),
    new ModelGaTuner("DAC", withDataSize = true,
      (xs, ys, s) => Gbdt.fit(xs, ys, nTrees = 40, maxDepth = 3, seed = s).predict),
    new PresetTuner("CherryPick", CherryPick),
    new PresetTuner("Tuneful", Tuneful),
    new PresetTuner("LOCAT", Locat),
    new PresetTuner("Ours", TunerSettings()))
}
