package repro.jobs

import repro.core.{Objective, OnlineTuner, TunerSettings}
import repro.env.{FleetGen, SparkClusterSim, Workloads}
import repro.space.{Config, SparkParams => SP}

/** Reproduces Table 4: execution cost of the top-3 configurations
  * transferred by the warm-starting module from a similar source task,
  * compared with the default and manually-tuned configurations.
  *
  * Pairs follow the paper: TeraSort←Sort, TeraSort←WordCount,
  * LR←PageRank, KMeans←SVD.
  */
object Table4Job {

  final case class Row(target: String, source: String,
                       default: Double, manual: Double,
                       top1: Double, top2: Double, top3: Double)

  private val cs = FleetGen.hibenchSpace

  /** A sensible hand-tuned HiBench config (the "Manual" column). */
  def manualConfig: Config = FleetGen.manualConfig(cs, instances = 16, cores = 4,
    memGB = 8, parallelism = 256)

  /** Spark out-of-the-box defaults. */
  def defaultConfig: Config = SP.defaults(cs)

  /** Evaluation cost of `c` on the target workload (noise-free data size,
    * mean of 3 seeded runs). */
  private def cost(sim: SparkClusterSim, c: Config): Double = {
    val rs = (0 until 3).map(i => sim.run(c, 100 + i))
    // Reported execution cost is the product T·R (§3.2), as in Table 4.
    rs.map(r => r.runtimeSec * r.resource).sum / rs.size
  }

  def rows(budget: Int = 30): Vector[Row] = {
    val pairs = Vector(
      ("terasort", "sort"), ("terasort", "wordcount"),
      ("lr", "pagerank"), ("kmeans", "svd"))
    pairs.map { case (targetName, sourceName) =>
      val srcSim = new SparkClusterSim(Workloads.byName(sourceName), cs)
      val obj = Objective(beta = 0.5)
      // Tune the source task to produce its history (meta repository entry).
      val srcHist = new OnlineTuner(srcSim, obj,
        TunerSettings(seed = 1000 + sourceName.hashCode % 97),
        Vector(defaultConfig, manualConfig)).tune(budget).history
      // Top-3 distinct configurations of the source task, skipping the
      // default/manual seeds themselves (we transfer *discovered* configs).
      val top3 = srcHist.all
        .filterNot(o => o.config == defaultConfig || o.config == manualConfig)
        .sortBy(_.objective).map(_.config).distinct.take(3)

      val tgtSim = new SparkClusterSim(Workloads.byName(targetName), cs)
      val costs = top3.map(c => cost(tgtSim, c))
      Row(targetName, sourceName,
        cost(tgtSim, defaultConfig), cost(tgtSim, manualConfig),
        costs.lift(0).getOrElse(Double.NaN),
        costs.lift(1).getOrElse(Double.NaN),
        costs.lift(2).getOrElse(Double.NaN))
    }
  }

  def render(rs: Vector[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"Target"}%-10s ${"Source"}%-10s ${"Default"}%9s ${"Manual"}%9s " +
      f"${"Top1"}%9s ${"Top2"}%9s ${"Top3"}%9s\n")
    rs.foreach { r =>
      sb.append(f"${r.target}%-10s ${r.source}%-10s ${r.default}%9.2f ${r.manual}%9.2f " +
        f"${r.top1}%9.2f ${r.top2}%9.2f ${r.top3}%9.2f\n")
    }
    sb.toString
  }

  def main(args: Array[String]): Unit = print(render(rows()))
}
