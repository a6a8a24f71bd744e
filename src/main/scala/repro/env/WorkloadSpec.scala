package repro.env

/** Static characteristics of a periodic Spark workload, driving the
  * analytic cluster-execution model in [[SparkClusterSim]].
  *
  * The paper evaluates on Tencent's production platform and a 4-node
  * cluster; we cannot vary executor topology inside one local JVM, so the
  * workload is characterized by the quantities that determine Spark's
  * response surface to the 30 tuned parameters (see DESIGN.md §2).
  *
  * @param name          workload identifier (e.g. "terasort")
  * @param inputGB       nominal input size per periodic run
  * @param cpuSecPerGB   aggregate compute demand, CPU-seconds per input GB
  * @param shuffleFrac   fraction of stage input re-shuffled at each shuffle
  *                      boundary (0 = map-only, ~1 = full re-sort)
  * @param numStages     number of stages per iteration of the DAG
  * @param iterations    iterative super-structure (KMeans/PageRank > 1)
  * @param cachePerGB    GB of RDD cache wanted per input GB (iterative jobs)
  * @param memPerGBTask  working-set expansion: task memory need per GB of
  *                      partition data
  * @param skew          max/mean task-duration ratio (1 = uniform)
  * @param sql           true for Spark SQL jobs (partitions come from
  *                      spark.sql.shuffle.partitions, not default.parallelism)
  * @param driftAmp      relative amplitude of the periodic data-size drift
  * @param seed          base seed for this workload's stochastic draws
  */
final case class WorkloadSpec(
    name: String,
    inputGB: Double,
    cpuSecPerGB: Double,
    shuffleFrac: Double,
    numStages: Int,
    iterations: Int = 1,
    cachePerGB: Double = 0.0,
    memPerGBTask: Double = 1.6,
    skew: Double = 1.2,
    sql: Boolean = false,
    driftAmp: Double = 0.15,
    seed: Long = 17L,
) {
  require(inputGB > 0 && cpuSecPerGB > 0 && numStages >= 1 && iterations >= 1)

  /** Data size (GB) for run `iter`, following the periodic hour-of-day
    * drift of §3.3 (Dynamic Workload Support) plus small noise. */
  def dataSizeAt(iter: Int): Double = {
    val rng = new scala.util.Random(seed * 7919 + iter)
    val drift = 1.0 + driftAmp * math.sin(2 * math.Pi * (iter % 24) / 24.0 + seed % 7)
    val jitter = 1.0 + 0.03 * rng.nextGaussian()
    (inputGB * drift * jitter).max(inputGB * 0.2)
  }

  /** Data size `dsGB` as a model input in [0, 1]: twice the nominal input
    * maps to 1 (§3.3 Dynamic Workload Support). */
  def dataSizeUnit(dsGB: Double): Double = (dsGB / (2.0 * inputGB)).min(1.0).max(0.0)
}
