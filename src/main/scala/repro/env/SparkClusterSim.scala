package repro.env

import scala.util.Random
import repro.space.{Config, ConfigSpace, SparkParams => SP}

/** One simulated execution of a periodic job under a configuration. */
final case class RunResult(
    runtimeSec: Double,
    memUsageGBh: Double,     // Table 2 "Memory_usage": executors·GB·hours
    cpuUsageCoreH: Double,   // Table 2 "CPU_usage": executors·cores·hours
    resource: Double,        // R(x) = instances·(cores + c_mem·memGB)
    dataSizeGB: Double,
    failed: Boolean) {       // OOM / lost-executor style failure
}

/** Analytic Spark cluster-execution model (the substrate replacing the
  * Tencent platform / 4-node cluster — DESIGN.md §2).
  *
  * The model reproduces the qualitative response surface of Spark to its
  * configuration parameters:
  *
  *  - **wave scheduling**: a stage of `P` tasks on `E·C` slots takes
  *    `ceil(P/slots)` waves plus a skew tail;
  *  - **memory pressure**: per-task execution memory below the working set
  *    causes spill slow-down, far below causes OOM failure; iterative jobs
  *    whose cache does not fit in storage memory pay recompute penalties;
  *  - **GC**: too little memory per core inflates compute time;
  *  - **shuffle mechanics**: compression codec/flag, file buffer,
  *    serializer, reducer fetch size and connection count scale shuffle
  *    cost; tiny tasks pay per-task scheduling overhead;
  *  - **startup**: driver + executor acquisition overhead grows with E;
  *  - **noise**: multiplicative log-normal observation noise of σ =
  *    `NoiseSigma` (BO is claimed noise-robust; §3.3) plus periodic
  *    data-size drift.
  *
  * All draws are seeded by (spec.seed, iter) so runs are reproducible.
  */
final class SparkClusterSim(val spec: WorkloadSpec, val cs: ConfigSpace) extends Serializable {

  /** Memory price coefficient in R(x) = E·(C + cMem·M) (§4.3). */
  val cMem: Double = 0.25

  /** Deterministic runtime model at data size `ds` (no noise). */
  def expectedRuntime(c: Config, ds: Double): Double = {
    val e  = cs.value(c, SP.Instances)
    val cc = cs.value(c, SP.ExecCores)
    val m  = cs.value(c, SP.ExecMemory)
    val memFrac  = cs.value(c, SP.MemoryFraction)
    val storFrac = cs.value(c, SP.StorageFraction)
    val par = if (spec.sql) cs.value(c, SP.ShufflePartitions) else cs.value(c, SP.Parallelism)
    val bufKB = cs.value(c, SP.ShuffleFileBuffer)
    val shufCompress = cs.choice(c, SP.ShuffleCompress) == "true"
    val spillCompress = cs.choice(c, SP.SpillCompress) == "true"
    val codec = cs.choice(c, SP.IoCodec)
    val kryo = cs.choice(c, SP.Serializer).contains("Kryo")
    val inFlight = cs.value(c, SP.MaxSizeInFlight)
    val speculation = cs.choice(c, SP.Speculation) == "true"
    val rddCompress = cs.choice(c, SP.RddCompress) == "true"
    val localityWait = cs.value(c, SP.LocalityWait)
    val conns = cs.value(c, SP.ConnsPerPeer)
    val maxPartMB = cs.value(c, SP.MaxPartitionBytes)

    val slots = (e * cc).max(1.0)
    // Input stage partitioning is driven by maxPartitionBytes; shuffled
    // stages by parallelism/shuffle.partitions.
    val inputParts = math.ceil(ds * 1024.0 / maxPartMB).max(1.0)
    val shufParts = par.max(1.0)

    // --- memory model -----------------------------------------------------
    val usableGB = (m - 0.3).max(0.3)                       // JVM/overhead reserve
    val storagePerExec = usableGB * memFrac * storFrac
    val pressure = this.pressure(c, ds)
    val oom = pressure > SparkClusterSim.OomPressure
    // Spill: gentle until 1×, then linear slow-down, capped.
    val spillFactor =
      if (pressure <= 1.0) 1.0
      else 1.0 + 0.35 * math.min(pressure - 1.0, 4.0) * (if (spillCompress) 0.85 else 1.0)
    // GC pressure when memory per core is low.
    val memPerCore = usableGB / cc
    val gcFactor = 1.0 + 0.25 * math.max(0.0, 1.0 - memPerCore) / 1.0 +
      0.05 * math.max(0.0, 0.5 - memFrac)
    // Iterative cache fit (storage memory across the cluster).
    val cacheNeedGB = ds * spec.cachePerGB * (if (rddCompress) 0.6 else 1.0)
    val cacheAvailGB = e * storagePerExec
    val cacheMiss =
      if (cacheNeedGB <= 1e-9) 0.0
      else (1.0 - (cacheAvailGB / cacheNeedGB).min(1.0))
    // Un-cached iterations recompute their lineage: a full cache miss on a
    // 10-iteration job costs several times the cached runtime.
    val recomputeFactor =
      if (spec.iterations <= 1) 1.0
      else 1.0 + 0.8 * cacheMiss * math.min(spec.iterations - 1, 5).toDouble

    // --- long-tail parameters (each a small but real effect; all 30 tuned
    // parameters "significantly influence the application performance"
    // [24], which is what makes the full 30-dim space hard to search) ----
    val driverCores = cs.value(c, SP.DriverCores)
    val driverMem = cs.value(c, SP.DriverMemory)
    val reviveMs = cs.value(c, SP.ReviveInterval)
    val netTimeout = cs.value(c, SP.NetworkTimeout)
    val maxFailures = cs.value(c, SP.TaskMaxFailures)
    val kryoBufKB = cs.value(c, SP.KryoBuffer)
    val bcBlockMB = cs.value(c, SP.BroadcastBlock)
    val bcCompress = cs.choice(c, SP.BroadcastCompress) == "true"
    val memMapMB = cs.value(c, SP.MemoryMapThr)
    val bypassThr = cs.value(c, SP.BypassMergeThr)
    val autoBcMB = cs.value(c, SP.AutoBroadcastThr)

    // Driver-side scheduling throughput (small clusters barely notice).
    val driverFactor = 1.0 + (0.06 / driverCores.max(1.0)) + (0.04 / driverMem.max(1.0))
    // Aggressive (small) revive intervals schedule waves faster.
    val reviveSecPerWave = reviveMs / 1000.0 * 0.15
    // Short network timeouts cause spurious fetch retries under load.
    val timeoutFactor = 1.0 + math.max(0.0, (120.0 - netTimeout) / 120.0) * 0.05
    // Each allowed task retry adds bookkeeping; too few risks stage retry.
    val retryFactor = 1.0 + math.abs(maxFailures - 4.0) * 0.004
    // Per-stage broadcast of closures/metadata.
    val broadcastSec = (0.15 + 0.004 * e) * (if (bcCompress) 0.75 else 1.0) *
      (1.0 + math.abs(math.log(bcBlockMB.max(1.0) / 4.0)) * 0.08)
    // mmap threshold sweet spot around 2 MB.
    val mmapFactor = 1.0 + math.abs(math.log(memMapMB.max(1.0) / 2.0)) * 0.015

    // --- per-stage times --------------------------------------------------
    val codecCpu = codec match { case "zstd" => 1.12; case "snappy" => 1.02; case _ => 1.0 }
    val codecRatio = codec match { case "zstd" => 0.55; case "snappy" => 0.75; case _ => 0.70 }
    val kryoBufFactor = 1.0 + 6.0 / kryoBufKB.max(16.0) * 0.1
    val serFactor = (if (kryo) 0.82 * kryoBufFactor else 1.0) * retryFactor
    // SQL broadcast-join threshold: a moderate threshold converts some
    // shuffle joins to broadcast joins; extremes lose the benefit.
    val sqlJoinFactor =
      if (!spec.sql) 1.0
      else if (autoBcMB >= 8 && autoBcMB <= 32) 0.93
      else 1.0
    val totalCpuSec = ds * spec.cpuSecPerGB * serFactor * gcFactor * timeoutFactor

    val diskBwGBs = 0.20      // per-slot scan bandwidth
    val shufBwGBs = 0.12      // per-slot shuffle write+read bandwidth

    def stageTime(parts: Double, cpuSecStage: Double, ioGB: Double, shufGB: Double): Double = {
      val waves = math.ceil(parts / slots)
      val cpuPerTask = cpuSecStage / parts
      val ioPerTask = ioGB / parts / diskBwGBs
      val shufRaw = shufGB / parts
      val shufEff = if (shufCompress) shufRaw * codecRatio * codecCpu else shufRaw * 1.4
      val bufferFactor = 1.0 + 20.0 / bufKB.max(8.0)        // small buffers → extra flushes
      val fetchFactor = 1.0 + 10.0 / inFlight.max(8.0) + 0.05 / conns.max(1.0)
      // Bypass-merge shuffle path: cheaper writes while the partition
      // count stays under the threshold.
      val bypassFactor = if (parts <= bypassThr) 0.94 else 1.0
      val shufPerTask = shufEff / shufBwGBs * bufferFactor * fetchFactor *
        spillFactor * bypassFactor * sqlJoinFactor
      val taskTime = (cpuPerTask * spillFactor + ioPerTask * mmapFactor + shufPerTask).max(0.005)
      // Skew tail: the slowest task is `skew`× the mean; speculation trims it.
      val skewEff = if (speculation) 1.0 + (spec.skew - 1.0) * 0.4 else spec.skew
      val tail = taskTime * (skewEff - 1.0)
      val schedOverhead = (parts * 0.004 * driverFactor) + localityWait * 0.1 +
        waves * reviveSecPerWave + broadcastSec
      waves * taskTime + tail + schedOverhead
    }

    val perIterCpu = totalCpuSec / spec.iterations / spec.numStages
    val inputStage = stageTime(inputParts, perIterCpu, ds, 0.0)
    val shuffleStage = stageTime(shufParts, perIterCpu, 0.0, ds * spec.shuffleFrac)
    val iterTime = inputStage + (spec.numStages - 1).max(0) * shuffleStage
    val body = spec.iterations * iterTime * recomputeFactor

    val startup = 4.0 + 0.015 * e + 1.5 * math.log1p(e)
    val base = startup + body
    if (oom) base * (2.5 + math.min(pressure, 10.0) * 0.2) else base
  }

  /** Memory pressure of `c` at data size `ds`: the per-task shuffle
    * working set over per-task execution memory. Above 1 the task
    * spills; above 6 it OOMs. */
  private def pressure(c: Config, ds: Double): Double = {
    val cc = cs.value(c, SP.ExecCores)
    val m  = cs.value(c, SP.ExecMemory)
    val memFrac  = cs.value(c, SP.MemoryFraction)
    val storFrac = cs.value(c, SP.StorageFraction)
    val par = if (spec.sql) cs.value(c, SP.ShufflePartitions) else cs.value(c, SP.Parallelism)
    val usableGB = (m - 0.3).max(0.3)                       // JVM/overhead reserve
    val execMemPerTask = usableGB * memFrac * (1.0 - storFrac) / cc
    val bytesPerShufTaskGB = ds * spec.shuffleFrac.max(0.05) / par.max(1.0)
    val needGB = (bytesPerShufTaskGB * spec.memPerGBTask).max(0.05)
    needGB / execMemPerTask.max(1e-3)
  }

  /** Whether configuration `c` OOMs at data size `ds` (deterministic). */
  def fails(c: Config, ds: Double): Boolean = pressure(c, ds) > SparkClusterSim.OomPressure

  private val instancesDim = cs.indexOf(SP.Instances)
  private val coresDim = cs.indexOf(SP.ExecCores)
  private val memoryDim = cs.indexOf(SP.ExecMemory)

  /** Resource function R(x) — white-box, analytic (§4.3). */
  def resource(c: Config): Double = resourceOf(c(instancesDim), c(coresDim), c(memoryDim))

  /** R(x) of the raw values `x` in space order: `resource(Config(x))`
    * without building the config. */
  def resourceOfRow(x: Array[Double]): Double =
    resourceOf(x(instancesDim), x(coresDim), x(memoryDim))

  private def resourceOf(e: Double, cc: Double, m: Double): Double = e * (cc + cMem * m)

  /** Execute run number `iter` with configuration `c`: applies data-size
    * drift and multiplicative log-normal noise. */
  def run(c: Config, iter: Int): RunResult = {
    val ds = spec.dataSizeAt(iter)
    runAt(c, ds, iter)
  }

  /** Execute at an explicit data size (used by tests and warm-start evals). */
  def runAt(c: Config, ds: Double, iter: Int): RunResult = {
    val rng = new Random(spec.seed * 1000003 + iter * 131 + c.values.hashCode())
    val noise = math.exp(SparkClusterSim.NoiseSigma * rng.nextGaussian())
    val t = expectedRuntime(c, ds) * noise
    val e = cs.value(c, SP.Instances)
    val cc = cs.value(c, SP.ExecCores)
    val m = cs.value(c, SP.ExecMemory)
    RunResult(
      runtimeSec = t,
      memUsageGBh = e * m * t / 3600.0,
      cpuUsageCoreH = e * cc * t / 3600.0,
      resource = resource(c),
      dataSizeGB = ds,
      failed = fails(c, ds))
  }
}

object SparkClusterSim {
  final val NoiseSigma = 0.04
  /** Memory pressure above which a run OOMs: its runtime pays the OOM
    * penalty and [[RunResult.failed]] is set. */
  final val OomPressure = 6.0
  final val CalibrationSteps = 6

  /** Scale `spec.cpuSecPerGB` so that the noise-free runtime of
    * `manual` at the nominal data size matches `targetRuntimeSec`.
    * Used to calibrate the eight Table-2 production tasks to the paper's
    * manual rows by [[CalibrationSteps]] fixed-point steps, enough because
    * runtime is monotone in the compute scale. */
  def calibrate(spec: WorkloadSpec, cs: ConfigSpace, manual: Config,
                targetRuntimeSec: Double): WorkloadSpec = {
    var s = spec
    var i = 0
    while (i < CalibrationSteps) {
      val sim = new SparkClusterSim(s, cs)
      val t = sim.expectedRuntime(manual, s.inputGB)
      val ratio = (targetRuntimeSec / t).max(0.05).min(20.0)
      s = s.copy(cpuSecPerGB = s.cpuSecPerGB * ratio)
      i += 1
    }
    s
  }
}
