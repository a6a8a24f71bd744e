package repro.jobs

import scala.util.Random
import repro.core.Objective
import repro.env.{FleetGen, SparkClusterSim, Workloads}
import repro.importance.FAnova

/** Reproduces Table 5: top-10 Spark parameters by fANOVA importance
  * (mean ± std across tasks).
  *
  * Per §4.1, importances come from per-task tuning histories and are
  * averaged. Histories here are broad-coverage run histories on the six
  * HiBench tasks (random + low-discrepancy configurations, so the forest
  * sees the whole space).
  */
object Table5Job {

  final case class Row(rank: Int, name: String, mean: Double, std: Double)

  def rows(nPerTask: Int = 100, seed: Long = 5L): Vector[Row] = {
    val cs = FleetGen.hibenchSpace
    val obj = Objective(beta = 0.5)
    val results = Workloads.six.map { spec =>
      val sim = new SparkClusterSim(spec, cs)
      val rng = new Random(seed + spec.seed)
      val configs = cs.sampleLowDiscrepancy(nPerTask / 2, seed + spec.seed) ++
        cs.sampleRandom(rng, nPerTask - nPerTask / 2)
      val ys = configs.zipWithIndex.map { case (c, i) =>
        math.log(obj.value(sim.run(c, i)).max(1e-9))
      }
      FAnova.importance(cs, configs, ys, seed = seed + spec.seed)
    }
    val agg = FAnova.aggregate(results)
    agg.zipWithIndex
      .sortBy { case ((m, _), _) => -m }
      .take(10)
      .zipWithIndex
      .map { case (((m, sd), dim), rank) =>
        Row(rank + 1, cs.params(dim).name, m, sd)
      }.toVector
  }

  def render(rs: Vector[Row]): String = {
    val sb = new StringBuilder
    sb.append(f"${"#"}%3s ${"Parameter Name"}%-38s ${"Importance (mean +- std)"}\n")
    rs.foreach(r => sb.append(f"${r.rank}%3d ${r.name}%-38s ${r.mean}%.4f +- ${r.std}%.4f\n"))
    sb.toString
  }

  def main(args: Array[String]): Unit = print(render(rows()))
}
