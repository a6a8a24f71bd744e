package repro.jobs

import repro.core.TuningService
import repro.env.FleetGen

/** Reproduces Table 2: detailed manual-vs-tuned comparison on the eight
  * advertisement production tasks (β=0.5, constraints 2× manual, budget 20).
  *
  * Run: spark-submit --class repro.jobs.Table2Job <jar>   (driver-side only)
  */
object Table2Job {
  def rows(budget: Int = 20): Vector[(String, repro.core.FleetRow)] =
    FleetGen.eightTasks.map(t => (t.name, TuningService.tuneOne(t, budget)))

  def render(rs: Vector[(String, repro.core.FleetRow)]): String = {
    val sb = new StringBuilder
    sb.append(f"${"Task"}%-32s ${"Method"}%-7s ${"Mem(GBh)"}%10s ${"CPU(coreh)"}%11s " +
      f"${"Runtime(s)"}%11s ${"Cost"}%12s ${"Inst"}%5s ${"Cores"}%5s ${"Mem"}%4s ${"#Iter"}%5s\n")
    rs.foreach { case (name, r) =>
      sb.append(f"$name%-32s Manual  ${r.preMemGBh}%10.2f ${r.preCpuCoreH}%11.2f " +
        f"${r.preRuntime}%11.2f ${r.preCost}%12.2f ${""}%5s ${""}%5s ${""}%4s ${"-"}%5s\n")
      sb.append(f"$name%-32s Ours    ${r.postMemGBh}%10.2f ${r.postCpuCoreH}%11.2f " +
        f"${r.postRuntime}%11.2f ${r.postCost}%12.2f ${r.instances}%5.0f ${r.cores}%5.0f " +
        f"${r.memoryGB}%4.0f ${r.bestIter}%5d\n")
    }
    val avgRed = TuningService.avgReduction(rs.map(_._2)) _
    sb.append(f"Avg reduction on ${rs.size} tasks: " +
      f"memory ${avgRed(_.preMemGBh, _.postMemGBh)}%.2f%%, " +
      f"cpu ${avgRed(_.preCpuCoreH, _.postCpuCoreH)}%.2f%%, " +
      f"runtime ${avgRed(_.preRuntime, _.postRuntime)}%.2f%%, " +
      f"cost ${avgRed(_.preCost, _.postCost)}%.2f%%, " +
      f"avg #iter ${rs.map(_._2.bestIter).sum / rs.size.toDouble}%.2f\n")
    sb.toString
  }

  def main(args: Array[String]): Unit = print(render(rows()))
}
