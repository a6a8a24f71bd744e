package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.core.Objective
import repro.env.{FleetGen, SparkClusterSim, WorkloadSpec, Workloads}
import repro.space.{Config, SparkParams => SP}

/** Reproduces Figures 4 & 5 in tabular form: speedup (runtime objective,
  * β=1) and cost reduction (β=0.5) of every method relative to random
  * search on the 6 HiBench tasks, 30 iterations, runtime constraint 2×
  * the default configuration (§6.3).
  *
  * Combinations (task × method × seed × objective) are sharded over a
  * Spark Dataset; each cell replays the full online tuning session.
  */
object HiBenchCompareJob {

  final case class Cell(task: String, method: String, beta: Double, seed: Long,
                        best: Double)

  val cs = FleetGen.hibenchSpace

  /** The §6.3 starting point for `spec`: its simulator, the default
    * configuration, and the objective with runtime constraint twice the
    * default's noise-free runtime at the nominal data size. */
  def start(spec: WorkloadSpec, beta: Double): (SparkClusterSim, Config, Objective) = {
    val sim = new SparkClusterSim(spec, cs)
    val default = SP.defaults(cs)
    val defRt = sim.expectedRuntime(default, spec.inputGB)
    (sim, default, Objective(beta = beta, tMax = 2.0 * defRt))
  }

  /** Best observed objective value within the budget for one combination. */
  def runOne(task: String, method: String, beta: Double, seed: Long,
             budget: Int): Cell = {
    val (sim, default, obj) = start(Workloads.byName(task), beta)
    val h = Baselines.all.find(_.name == method)
      .getOrElse(throw new NoSuchElementException(method))
      .tune(sim, obj, budget, seed, Vector(default))
    Cell(task, method, beta, seed, h.bestObjective)
  }

  def allCells(spark: SparkSession, seeds: Int = 3, budget: Int = 30): Seq[Cell] = {
    import spark.implicits._
    val combos = for {
      t <- Workloads.six.map(_.name)
      m <- Baselines.all.map(_.name)
      s <- 0 until seeds
      b <- Seq(1.0, 0.5)
    } yield (t, m, s.toLong, b)
    spark.createDataset(combos)
      .repartition(spark.sparkContext.defaultParallelism * 2)
      .map { case (t, m, s, b) => runOne(t, m, b, s * 997 + 13, budget) }
      .collect().toSeq
  }

  /** (task, method) → mean best objective across seeds for objective β. */
  def means(cells: Seq[Cell], beta: Double): Map[(String, String), Double] =
    cells.filter(_.beta == beta).groupBy(c => (c.task, c.method))
      .map { case (k, vs) => k -> vs.map(_.best).sum / vs.size }

  def render(cells: Seq[Cell]): String = {
    val sb = new StringBuilder
    val methods = Baselines.all.map(_.name)
    val tasks = Workloads.six.map(_.name)
    sb.append("== Figure 4 (as table): speedup of best runtime vs RandomSearch ==\n")
    val mRt = means(cells, 1.0)
    sb.append(f"${"task"}%-10s" + methods.map(m => f"$m%13s").mkString + "\n")
    tasks.foreach { t =>
      val rs = mRt((t, "RandomSearch"))
      sb.append(f"$t%-10s" + methods.map(m => f"${rs / mRt((t, m))}%13.2f").mkString + "\n")
    }
    sb.append("\n== Figure 5 (as table): cost reduction (%) vs RandomSearch ==\n")
    // β=0.5 objective is √(T·R); the paper's cost metric is T·R — square.
    val mC = means(cells, 0.5).map { case (k, v) => k -> v * v }
    sb.append(f"${"task"}%-10s" + methods.map(m => f"$m%13s").mkString + "\n")
    tasks.foreach { t =>
      val rs = mC((t, "RandomSearch"))
      sb.append(f"$t%-10s" +
        methods.map(m => f"${100.0 * (rs - mC((t, m))) / rs}%13.2f").mkString + "\n")
    }
    sb.toString
  }

  def main(args: Array[String]): Unit = {
    val seeds = args.headOption.map(_.toInt).getOrElse(3)
    val spark = SparkSession.builder().master("local[*]").appName("hibench-compare")
      .config("spark.ui.enabled", false).getOrCreate()
    try print(render(allCells(spark, seeds)))
    finally spark.stop()
  }
}
