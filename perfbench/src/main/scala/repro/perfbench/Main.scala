package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._

/** Benchmark entry point; `perfbench/run.py` builds the classpath and
  * starts it as
  *
  *   Main --workload <session|fleet|compare> --seed <n> --seconds <s> --trace <0|1>
  *
  * Prints one `info` JSON line (run environment, sizes, quality figures,
  * checks) and, last, the result object {correct, attempted, failed, metrics}.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace")
    require(argv.length == 2 * known.size && kv.keySet == known,
      s"usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; got ${argv.mkString(" ")}")
    require(kv("trace") == "0" || kv("trace") == "1", s"--trace must be 0 or 1, got ${kv("trace")}")
    val seconds = kv("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(kv("workload"), kv("seed").toLong, seconds, kv("trace") == "1")
  }

  /** Sizes per workload, chosen so one round takes a few seconds on four
    * cores and the quality figures, averaged over a round, move little
    * from seed to seed. */
  def bench(a: Args): Bench = a.workload match {
    case "session" => new SessionBench(a.seed, perCell = 4)
    case "fleet" => new FleetBench(a.seed, n = 240)
    case "compare" => new CompareBench(a.seed, k = 2)
    case w => throw new IllegalArgumentException(s"unknown workload: $w")
  }

  val SetUpRepeats = 3

  def main(argv: Array[String]): Unit = {
    val bootSec = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val a = parse(argv)
    val b = bench(a)
    try {
      val setUps = (1 to SetUpRepeats).map(_ => Trace.seconds(b.setUp())._2)
      if (a.trace) traced(a, b, bootSec, setUps) else timed(a, b, bootSec, setUps)
    } finally b.close()
  }

  private def m(v: Double, unit: String) = Map("value" -> v, "unit" -> unit)

  /** Fastest repetition per key. */
  def bestOf[K](xs: Seq[(K, Double)]): Seq[(K, Double)] =
    xs.groupBy(_._1).map { case (k, v) => (k, v.map(_._2).min) }.toSeq

  private def checkRounds(rounds: Seq[Round]): Seq[(String, Boolean)] =
    rounds.flatMap(_.checks) ++ Seq(
      "rounds.quality_identical" -> rounds.forall(_.quality == rounds.head.quality),
      "rounds.output_identical" -> rounds.forall(_.fingerprint == rounds.head.fingerprint))

  private def timed(a: Args, b: Bench, bootSec: Double, setUps: Seq[Double]): Unit = {
    val start = System.nanoTime()
    var rounds = Vector(b.round())
    while ((System.nanoTime() - start) / 1e9 < a.seconds) rounds :+= b.round()
    val ok = rounds.filter(_.failed == 0)
    val checks = checkRounds(rounds) ++ (if (ok.nonEmpty) b.finalChecks(ok.head) else Nil)
    // Every round repeats identical deterministic work, so each unit's
    // fastest repetition is its time with the least interference from
    // other load on the host.
    val samples = bestOf(ok.flatMap(_.suggestMs))
    val units = bestOf(ok.flatMap(_.units.map { case (k, n, sec) => ((k, n), sec) }))
    val p50 = Stats.percentile(samples.map(_._2), 50)
    val p90 = Stats.percentile(samples.map(_._2), 90)
    val quality = ok.headOption.map(_.quality).getOrElse(Map.empty)
    val metrics = Map(
      // The median set-up drops the first, cold repetition (JIT and class
      // loading); that one is kept on the info line as setup_repeats_s(0).
      "setup_s" -> m(bootSec + Stats.median(setUps), "s"),
      "sessions_per_s" -> m(units.map(_._1._2).sum / units.map(_._2).sum, "1/s"),
      "suggest_ms_p50" -> m(p50.value, "ms"),
      "best_red_pct" -> m(quality.getOrElse("best_red_pct", Double.NaN), "%"))
    emit(a, b, rounds, checks, metrics, Map(
      "boot_s" -> bootSec, "setup_repeats_s" -> setUps,
      "suggest_ms_samples" -> samples.size,
      "suggest_ms_p90" -> m(p90.value, "ms"),
      "repetitions" -> ok.size,
      "quality" -> quality.map { case (k, v) => k -> m(v, QualityUnits(k)) },
      "round_wall_s" -> rounds.map(_.wallSec)))
  }

  val QualityUnits: Map[String, String] = Map("best_red_pct" -> "%",
    "infeasible_run_pct" -> "%", "post_mem_red_pct" -> "%", "under_rt_red_pct" -> "%",
    "fig4_ours_speedup" -> "x", "fig5_ours_cost_red_pct" -> "%")

  private def traced(a: Args, b: Bench, bootSec: Double, setUps: Seq[Double]): Unit = {
    // Untraced and traced rounds alternate, and each side is taken at its
    // fastest round, so host noise between rounds does not read as
    // overhead. The spark.* figures come from the first traced round.
    val pairs = (1 to 2).map { _ =>
      val plain = b.round()
      val listener = new SparkTasks
      b.spark.foreach(_.sparkContext.addSparkListener(listener))
      val tracedRound = b.round()
      listener.drain()
      b.spark.foreach(_.sparkContext.removeSparkListener(listener))
      (plain, tracedRound, listener)
    }
    val listener = pairs.head._3
    val plainSec = pairs.map(_._1.wallSec).min
    val tracedSec = pairs.map(_._2.wallSec).min
    b.replay(new Trace, warmUp = true)
    val tr = new Trace
    val replayedWall = b.replay(tr, warmUp = false)
    val rounds = pairs.flatMap(p => Seq(p._1, p._2))
    val checks = checkRounds(rounds) ++ Seq(
      "replay.rebuild_equals_tune_one" -> (tr.countOf("check.fleet.rebuild_mismatch") == 0),
      "replay.agd_step_equals_tuner" -> (tr.countOf(Replay.AgdMismatch) == 0))

    val ms = 1e-3
    val us = 1e-6
    val layerSum = Replay.SessionLayers.map(tr.total).sum
    val slots = Runtime.getRuntime.availableProcessors()
    val heapPeakMb = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1048576.0
    def share(layer: String) = if (replayedWall > 0) tr.total(layer) / replayedWall else 0.0
    def ratio(num: Double, den: Double) = if (den > 0) num / den else 0.0

    val layers: Seq[(String, Double, String)] = Seq(
      ("importance.fanova.calls", tr.calls("importance.fanova").toDouble, "count"),
      ("importance.fanova.ms_p50", tr.pct("importance.fanova", 50, ms), "ms"),
      ("importance.fanova.ms_p90", tr.pct("importance.fanova", 90, ms), "ms"),
      ("importance.fanova.share", share("importance.fanova"), "ratio"),
      ("importance.fanova.useful_ratio",
        ratio(tr.countOf("importance.fanova.useful"), tr.calls("importance.fanova")), "ratio"),
      ("bo.score.ms_p50", tr.pct("bo.score", 50, ms), "ms"),
      ("bo.score.share", share("bo.score"), "ratio"),
      ("bo.candidates.ms_p50", tr.pct("bo.candidates", 50, ms), "ms"),
      ("bo.safe_ratio", ratio(tr.countOf("bo.safe"), tr.countOf("bo.candidates")), "ratio"),
      ("surrogate.gp_predict.us_p50", tr.pct("surrogate.gp_predict", 50, us), "us"),
      ("surrogate.gp_fit.calls", tr.calls("surrogate.gp_fit").toDouble, "count"),
      ("surrogate.gp_fit.ms_p50", tr.pct("surrogate.gp_fit", 50, ms), "ms"),
      ("surrogate.gp_fit.share", share("surrogate.gp_fit"), "ratio"),
      ("bo.agd_step.ms_p50", tr.pct("bo.agd_step", 50, ms), "ms"),
      ("env.sim_run.us_p50", tr.pct("env.sim_run", 50, us), "us"),
      ("core.tune_one.ms_p50", tr.pct("core.tune_one", 50, ms), "ms"),
      ("core.tune_one.ms_p90", tr.pct("core.tune_one", 90, ms), "ms"),
      ("core.tune_one.ms_max", tr.pct("core.tune_one", 100, ms), "ms"),
      ("meta.kb_build_s", tr.total("meta.kb_build"), "s"),
      ("meta.similarity_train_s", tr.total("meta.similarity_train"), "s"),
      ("meta.warm_start.us_p50", tr.pct("meta.warm_start", 50, us), "us"),
      ("model.rf_fit.ms_p50", tr.pct("model.rf_fit", 50, ms), "ms"),
      ("model.rf_predict.us_p50", tr.pct("model.rf_predict", 50, us), "us"),
      ("model.gbdt_fit.ms_p50", tr.pct("model.gbdt_fit", 50, ms), "ms")) ++
      repro.baselines.Baselines.all.map(t =>
        (s"baselines.${t.name}.ms_p50", tr.pct(s"baselines.${t.name}", 50, ms), "ms")) ++ Seq(
      ("spark.tasks", listener.tasks.toDouble, "count"),
      ("spark.busy_s", listener.busySec, "s"),
      ("spark.slot_util",
        if (listener.jobWallSec > 0) Stats.slotUtil(listener.busySec, slots, listener.jobWallSec)
        else 0.0, "ratio"),
      ("spark.straggler_ratio", listener.dominantStageStraggler, "ratio"),
      ("spark.gc_s", listener.gcSec, "s"),
      ("jvm.heap_peak_mb", heapPeakMb, "MB"),
      ("core.traced_share", ratio(layerSum, replayedWall), "ratio"),
      ("core.trace_overhead_pct", 100.0 * (tracedSec - plainSec) / plainSec, "%"))

    emit(a, b, rounds, checks, layers.map { case (k, v, u) => k -> m(v, u) }.toMap, Map(
      "boot_s" -> bootSec, "setup_repeats_s" -> setUps,
      "untraced_round_s" -> pairs.map(_._1.wallSec), "traced_round_s" -> pairs.map(_._2.wallSec),
      "replayed_session_wall_s" -> replayedWall,
      "span_calls" -> (Replay.SessionLayers ++ Seq("model.rf_fit", "model.gbdt_fit",
        "core.tune_one", "meta.warm_start")).map(l => l -> tr.calls(l)).toMap))
  }

  /** The output checks with `metrics.finite` added, and the result object:
    * non-finite metrics read -1, and a failed round counts all its sessions
    * in `failed`. */
  def result(rounds: Seq[Round], checks: Seq[(String, Boolean)],
             metrics: Map[String, Map[String, Any]]): (Seq[(String, Boolean)], Map[String, Any]) = {
    def finite(v: Map[String, Any]) = {
      val d = v("value").asInstanceOf[Double]
      !d.isNaN && !d.isInfinite
    }
    val allChecks = checks :+ ("metrics.finite" -> metrics.values.forall(finite))
    (allChecks, Map(
      "correct" -> allChecks.forall(_._2),
      "attempted" -> rounds.map(_.attempted).sum,
      "failed" -> rounds.map(_.failed).sum,
      "metrics" -> metrics.map { case (k, v) => k -> (if (finite(v)) v else v.updated("value", -1.0)) }))
  }

  private def emit(a: Args, b: Bench, rounds: Seq[Round], checks: Seq[(String, Boolean)],
                   metrics: Map[String, Map[String, Any]], extra: Map[String, Any]): Unit = {
    val (allChecks, res) = result(rounds, checks, metrics)
    val info = Map(
      "info" -> (Map[String, Any](
        "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
        "sizes" -> b.sizes, "rounds" -> rounds.size,
        "checks" -> allChecks.map { case (k, v) => k -> v }.toMap,
        "env" -> Map(
          "git_sha" -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
          "source_sha256" -> sys.props.getOrElse("perfbench.source_sha256", "unknown"),
          "nproc" -> Runtime.getRuntime.availableProcessors(),
          "jdk" -> sys.props.getOrElse("java.runtime.version", "?"),
          "spark" -> org.apache.spark.SPARK_VERSION,
          "scala" -> scala.util.Properties.versionNumberString,
          "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576)) ++ extra))
    println(Json.render(info))
    println(Json.render(res))
  }
}
