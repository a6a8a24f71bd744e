package repro.meta

import repro.env.WorkloadSpec

/** Task meta-features (§5.1, after Prats et al. [60]).
  *
  * The paper extracts 75 features from the SparkEventLog: 11 stage-level
  * (which actions/transformations appear) and 64 task-level (read/write/
  * CPU/shuffle intensity statistics). Here [[fromSpec]] derives the same
  * 75-dim layout analytically from a simulated workload's spec, so the
  * similarity pipeline runs on the full benchmark set without a cluster;
  * extraction from real event logs is not reproduced.
  */
object MetaFeatures {

  val StageDim = 11
  val TaskDim = 64
  val Dim: Int = StageDim + TaskDim

  /** Deterministic 75-dim meta-feature vector for a simulated workload.
    * Stage-level slots encode DAG shape / operator mix; task-level slots
    * encode intensity ratios, with smooth redundant expansions (event-log
    * statistics are likewise many and correlated). */
  def fromSpec(spec: WorkloadSpec): Array[Double] = {
    val out = new Array[Double](Dim)
    // --- stage-level (11): DAG structure and operator families ----------
    out(0) = spec.numStages.toDouble / 8.0
    out(1) = spec.iterations.toDouble / 16.0
    out(2) = if (spec.sql) 1.0 else 0.0
    out(3) = if (spec.shuffleFrac > 0.5) 1.0 else 0.0          // wide-dep heavy
    out(4) = if (spec.cachePerGB > 0) 1.0 else 0.0             // persists RDDs
    out(5) = if (spec.iterations > 1) 1.0 else 0.0             // iterative action
    out(6) = spec.shuffleFrac
    out(7) = if (spec.skew > 1.4) 1.0 else 0.0                 // skewed keys
    out(8) = math.min(1.0, spec.inputGB / 1000.0)
    out(9) = if (spec.numStages > 2) 1.0 else 0.0              // multi-join/aggregate
    out(10) = if (spec.cpuSecPerGB > 150) 1.0 else 0.0         // compute-bound
    // --- task-level (64): intensity statistics --------------------------
    val cpuInt = math.min(1.0, spec.cpuSecPerGB / 400.0)
    val shufInt = spec.shuffleFrac
    val memInt = math.min(1.0, spec.memPerGBTask / 3.0)
    val ioInt = math.min(1.0, 1.0 / (1.0 + spec.cpuSecPerGB / 100.0))
    val skewInt = math.min(1.0, (spec.skew - 1.0) / 1.5)
    val cacheInt = math.min(1.0, spec.cachePerGB / 2.0)
    val base = Array(cpuInt, shufInt, memInt, ioInt, skewInt, cacheInt,
      math.min(1.0, spec.inputGB / 500.0), spec.iterations / 16.0)
    var i = 0
    while (i < TaskDim) {
      val b = base(i % base.length)
      // Redundant smooth expansions mimic the correlated percentile
      // statistics (min/25/50/75/max of each task metric) of [60].
      val k = i / base.length
      out(StageDim + i) = k match {
        case 0 => b
        case 1 => b * b
        case 2 => math.sqrt(b)
        case 3 => math.min(1.0, 1.5 * b)
        case 4 => b * 0.5
        case 5 => math.min(1.0, b + 0.1)
        case 6 => math.max(0.0, b - 0.1)
        case _ => math.tanh(2 * b)
      }
      i += 1
    }
    out
  }
}
