package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TuningService
import repro.env.FleetGen

/** Reproduces Table 3: fleet-average cost reductions, under-tuning vs
  * pre-tuning and post-tuning vs pre-tuning.
  *
  * The paper's 25K production tasks are substituted by a seeded synthetic
  * fleet (DESIGN.md §2); tuning of the fleet runs as a parallel Spark
  * Dataset job. `args(0)` overrides the fleet size (default 200 here;
  * the Table-3 bench uses the same path).
  */
object Table3Job {

  def run(spark: SparkSession, n: Int): (TuningService.Table3, Seq[repro.core.FleetRow]) = {
    val rows = TuningService.tuneFleet(spark, FleetGen.fleet(n), budget = 20).collect().toSeq
    (TuningService.aggregate(rows), rows)
  }

  def render(t: TuningService.Table3): String =
    f"""| Metric       | Cost Reduction(under vs. pre) | Cost Reduction(post vs. pre) |
        || Memory usage | ${t.underMem}%6.2f%%                       | ${t.postMem}%6.2f%%                      |
        || CPU usage    | ${t.underCpu}%6.2f%%                       | ${t.postCpu}%6.2f%%                      |
        || Runtime      | ${t.underRt}%6.2f%%                       | ${t.postRt}%6.2f%%                      |
        |""".stripMargin

  def main(args: Array[String]): Unit = {
    val n = args.headOption.map(_.toInt).getOrElse(200)
    val spark = SparkSession.builder().master("local[*]").appName("table3")
      .config("spark.ui.enabled", false).getOrCreate()
    try {
      val (t, _) = run(spark, n)
      print(render(t))
    } finally spark.stop()
  }
}
