package repro.perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._

/** Registered by the traced pass only: per-task run and GC time and the
  * wall time of every job, for the `spark.*` per-layer metrics. */
final class SparkTasks extends SparkListener {
  // stageId -> task run times (s)
  private val stageRun = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Double]]
  private var gc = 0.0
  private val jobStart = mutable.Map.empty[Int, Long]
  private var jobWall = 0.0
  private var started = 0
  private var ended = 0

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      stageRun.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += m.executorRunTime / 1e3
      gc += m.jvmGCTime / 1e3
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = e.time; started += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(t0 => jobWall += (e.time - t0) / 1e3)
    ended += 1
  }

  /** Events reach listeners asynchronously; wait until every started job
    * has been reported as ended. */
  def drain(timeoutMs: Long = 10000): Unit = {
    val until = System.currentTimeMillis() + timeoutMs
    while (synchronized(ended < started) && System.currentTimeMillis() < until) Thread.sleep(5)
  }

  def tasks: Int = synchronized(stageRun.values.map(_.size).sum)
  def busySec: Double = synchronized(stageRun.values.map(_.sum).sum)
  def gcSec: Double = synchronized(gc)
  def jobWallSec: Double = synchronized(jobWall)

  /** Straggler ratio of the stage that kept the slots busiest (the tuning
    * stage; shuffle-only stages around it are short). */
  def dominantStageStraggler: Double = synchronized {
    if (stageRun.isEmpty) 0.0
    else Stats.stragglerRatio(stageRun.values.maxBy(_.sum).toSeq)
  }
}
