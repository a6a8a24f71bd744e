package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.env.{FleetGen, ProdTask, RunResult, SparkClusterSim}
import repro.meta.{MetaFeatures, SourceTask, TaskSimilarity, WarmStart}
import repro.space.Config

/** Per-task outcome of a fleet tuning session (the data platform's view):
  * pre-tuning (manual), under-tuning (the 20 online trials), and
  * post-tuning (best found config applied) averages of the §6.2 metrics.
  */
final case class FleetRow(
    name: String,
    preMemGBh: Double, preCpuCoreH: Double, preRuntime: Double, preCost: Double,
    underMemGBh: Double, underCpuCoreH: Double, underRuntime: Double,
    postMemGBh: Double, postCpuCoreH: Double, postRuntime: Double, postCost: Double,
    bestIter: Int,
    instances: Double, cores: Double, memoryGB: Double)

/** The cloud tuning service applied to a fleet of periodic production
  * tasks (§6.2). Fleet tuning for Table 3 runs as a Spark job: the task
  * fleet is a Dataset and each partition tunes its tasks independently
  * (each fleet task's own executions are simulated by SparkClusterSim).
  */
object TuningService {

  /** Number of manual executions averaged for the pre/post windows. */
  val Window = 5

  /** Mean runtime, memory and CPU of a window of runs. */
  private def means(rs: Seq[RunResult]): (Double, Double, Double) = {
    def mean(f: RunResult => Double) = rs.map(f).sum / rs.size
    (mean(_.runtimeSec), mean(_.memUsageGBh), mean(_.cpuUsageCoreH))
  }

  /** The production recipe: `Window` runs of the periodic job under the
    * engineers' manual config, then `budget` online-tuned runs with
    * objective = execution cost (β=0.5) and constraints = 2× the manual
    * configuration's metrics. Returns the simulator, the manual runs and
    * the tuning history.
    */
  private[core] def tuneOnline(task: ProdTask, budget: Int, settings: TunerSettings,
                         warmStart: Vector[Config]): (SparkClusterSim, Seq[RunResult], RunHistory) = {
    val sim = new SparkClusterSim(task.spec, FleetGen.prodSpace)
    val pre = (0 until Window).map(i => sim.run(task.manual, i))
    val preRt = means(pre)._1
    val manualRes = sim.resource(task.manual)
    val objective = Objective(beta = 0.5).withConstraintsFrom(preRt, manualRes)

    // Online tuning starts from the incumbent: the manual configuration is
    // the first "trial" (it is what production is already running), then
    // meta-learned warm starts, then low-discrepancy exploration. Warm
    // starts transferred from tasks of a very different scale are screened
    // out by a white-box resource sanity check (a platform would never
    // run a 2-executor transfer on a 1000-executor job).
    val screened = warmStart.filter { w =>
      val r = sim.resource(w)
      r >= 0.1 * manualRes && r <= 2.0 * manualRes
    }
    // With a live incumbent there is no cold start: all exploration after
    // trial 1 goes through the safe BO acquisition, not blind
    // low-discrepancy probes (those are for the from-scratch benchmarks).
    val tuner = new OnlineTuner(sim, objective,
      settings.copy(seed = settings.seed + task.spec.seed, nInit = 1),
      task.manual +: screened)
    (sim, pre, tuner.tune(budget, startIter = Window).history)
  }

  /** Tune one production task end-to-end with the production recipe
    * ([[tuneOnline]], budget 20) and report the Table-2/3 metrics. */
  def tuneOne(task: ProdTask, budget: Int = 20,
              settings: TunerSettings = TunerSettings(),
              warmStart: Vector[Config] = Vector.empty): FleetRow = {
    val cs = FleetGen.prodSpace
    val (sim, pre, hist) = tuneOnline(task, budget, settings, warmStart)
    val (preRt, preMem, preCpu) = means(pre)
    // Reported "execution cost" is the paper's product T·R (the β=0.5
    // objective √(T·R) has the same minimizer; §3.2).
    val preCost = preRt * sim.resource(task.manual)

    val (underRt, underMem, underCpu) = means(hist.all.map(_.result))

    // Post-tuning: best-found config applied to subsequent executions.
    val best = hist.best.get
    val postStart = Window + budget
    val post = (0 until Window).map(i => sim.run(best.config, postStart + i))
    val (postRt, postMem, postCpu) = means(post)
    val postCost = postRt * sim.resource(best.config)

    val bestIter = hist.all.indexWhere(_.objective == best.objective) + 1

    import repro.space.{SparkParams => SP}
    FleetRow(task.name,
      preMem, preCpu, preRt, preCost,
      underMem, underCpu, underRt,
      postMem, postCpu, postRt, postCost,
      bestIter,
      cs.value(best.config, SP.Instances),
      cs.value(best.config, SP.ExecCores),
      cs.value(best.config, SP.ExecMemory))
  }

  /** Build the shared meta-knowledge repository: tune `n` seeded historical
    * tasks from scratch with the production recipe and learn the
    * task-distance model (§5). */
  def buildKnowledgeBase(n: Int = 8, budget: Int = 20, seed: Long = 7L)
      : (TaskSimilarity.DistanceModel, Vector[SourceTask]) = {
    val cs = FleetGen.prodSpace
    val sources = FleetGen.fleet(n, seed = seed * 131 + 5).map { task =>
      val (_, _, hist) = tuneOnline(task, budget, TunerSettings(), Vector.empty)
      SourceTask.fromHistory(cs, task.name, MetaFeatures.fromSpec(task.spec), hist.all)
    }
    val model = TaskSimilarity.train(cs, sources.map(s => (s.metaFeatures, s.surrogate)),
      nSample = 120, seed = seed)
    (model, sources)
  }

  /** Tune a whole fleet in parallel as a Spark Dataset job (Table 3). */
  def tuneFleet(spark: SparkSession, tasks: Vector[ProdTask],
                budget: Int = 20, settings: TunerSettings = TunerSettings(),
                withMeta: Boolean = true): Dataset[FleetRow] = {
    import spark.implicits._
    val kb = if (withMeta) Some(buildKnowledgeBase()) else None
    // Contiguous slices, no shuffle: rows come back in task order.
    val ds = spark.createDataset(spark.sparkContext.parallelize(tasks,
      math.min(tasks.size, spark.sparkContext.defaultParallelism * 2).max(1)))
    ds.map { task =>
      val warm = kb match {
        case Some((model, sources)) =>
          WarmStart.initialConfigs(model, MetaFeatures.fromSpec(task.spec), sources)
        case None => Vector.empty[Config]
      }
      tuneOne(task, budget, settings, warm)
    }
  }

  /** Table-3 aggregate: average reduction (%) of each metric, under- and
    * post-tuning vs pre-tuning. Positive = reduction. */
  final case class Table3(underMem: Double, underCpu: Double, underRt: Double,
                          postMem: Double, postCpu: Double, postRt: Double)

  /** Average reduction (%) from `before` to `after` over `rows`, each row's
    * reduction relative to its own `before`. Positive = reduction. */
  def avgReduction(rows: Seq[FleetRow])(before: FleetRow => Double, after: FleetRow => Double): Double =
    100.0 * rows.map(r => (before(r) - after(r)) / before(r)).sum / rows.size

  def aggregate(rows: Seq[FleetRow]): Table3 = {
    val red = avgReduction(rows) _
    Table3(
      red(_.preMemGBh, _.underMemGBh), red(_.preCpuCoreH, _.underCpuCoreH),
      red(_.preRuntime, _.underRuntime),
      red(_.preMemGBh, _.postMemGBh), red(_.preCpuCoreH, _.postCpuCoreH),
      red(_.preRuntime, _.postRuntime))
  }
}
