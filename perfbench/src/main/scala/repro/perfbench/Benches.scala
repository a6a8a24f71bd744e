package repro.perfbench

import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.core.{FleetRow, Objective, OnlineTuner, TunerSettings, TuningService}
import repro.env.{FleetGen, ProdTask, SparkClusterSim, WorkloadSpec, Workloads}
import repro.jobs.HiBenchCompareJob
import repro.meta.{MetaFeatures, TaskSimilarity, WarmStart}
import repro.space.{Config, SparkParams}

/** One timed pass over a workload's inputs.
  *
  * @param units     (key, sessions, wall seconds) of each timed unit of work:
  *                  a serial session, or a whole Spark job
  * @param suggestMs per session key: wall time over the iterations it ran
  * @param quality   tuning-quality figures; identical on every round of a run
  * @param fingerprint everything the round produced that must repeat exactly
  */
final case class Round(attempted: Int, failed: Int, wallSec: Double,
                       units: Seq[(String, Int, Double)], suggestMs: Seq[(String, Double)],
                       quality: Map[String, Double],
                       fingerprint: Any, checks: Seq[(String, Boolean)])

/** A benchmark workload. Inputs come from the seed only. */
trait Bench {
  def name: String
  def sizes: Map[String, Any]
  /** One set-up repetition: (re)start what the workload needs, generate its
    * inputs and run a warm-up slice, so JIT warm-up lands here. */
  def setUp(): Unit
  def round(): Round
  /** Checks run once after the timed rounds, against the first round. */
  def finalChecks(first: Round): Seq[(String, Boolean)]
  /** The traced pass's replays; `tr` receives the spans. Returns the wall
    * time of the sessions whose layers were replayed (the denominator of
    * `core.traced_share`). A `warmUp` replay covers only a small slice, to
    * compile the replay's own code before it is timed. */
  def replay(tr: Trace, warmUp: Boolean): Double
  def spark: Option[SparkSession]
  def close(): Unit
}

object Bench {
  val Budget = 30

  def clipped(sessions: Seq[Session]): Boolean =
    sessions.forall(s => s.observations.forall(o => s.sim.cs.clip(o.config) == o.config))

  /** The HiBench recipe of `HiBenchCompareJob.runOne`: start from the
    * defaults, Tmax = 2× the default's expected runtime. */
  def hibenchStart(spec: WorkloadSpec, beta: Double): (SparkClusterSim, Config, Objective) = {
    val sim = new SparkClusterSim(spec, FleetGen.hibenchSpace)
    val default = SparkParams.defaults(sim.cs)
    val obj = Objective(beta = beta, tMax = 2.0 * sim.expectedRuntime(default, spec.inputGB))
    (sim, default, obj)
  }

  def sparkSession(): SparkSession = {
    val slots = Runtime.getRuntime.availableProcessors()
    SparkSession.builder.master(s"local[$slots]").appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", slots * 2)
      .getOrCreate()
  }
}

/** `session`: one caller, closed loop, no Spark. `OnlineTuner.tune(30)` on
  * the six HiBench specs × β ∈ {1, 0.5} × `perCell` seeds, each session
  * starting from the Spark defaults with Tmax = 2× their runtime. */
final class SessionBench(seed: Long, perCell: Int) extends Bench {
  import SessionBench.Cell
  val name = "session"
  private var cells: Vector[Cell] = Vector.empty
  private var last: Vector[Session] = Vector.empty

  def sizes: Map[String, Any] = Map("sessions" -> Workloads.six.size * 2 * perCell, "budget" -> Bench.Budget,
    "specs" -> Workloads.six.map(_.name), "betas" -> Seq(1.0, 0.5), "seeds_per_cell" -> perCell)
  def spark: Option[SparkSession] = None

  def run(c: Cell): Session = {
    val (sim, default, obj) = Bench.hibenchStart(c.spec, c.beta)
    val settings = TunerSettings(seed = c.tunerSeed)
    val (out, wall) = Trace.seconds(
      new OnlineTuner(sim, obj, settings, Vector(default)).tune(Bench.Budget))
    Session(sim, obj, settings, Vector(default), 0, out.history, wall)
  }

  def setUp(): Unit = {
    cells = for {
      spec <- Workloads.six; beta <- Vector(1.0, 0.5); k <- (0 until perCell).toVector
    } yield Cell(spec, beta, seed * 1000 + k)
    cells.filter(_.tunerSeed == seed * 1000).foreach(run)
  }

  def round(): Round = {
    var failed = 0
    val (sessions, wall) = Trace.seconds(cells.flatMap { c =>
      try Some(run(c)) catch { case NonFatal(_) => failed += 1; None }
    })
    last = sessions
    val runs = sessions.flatMap(_.observations)
    val keyed = sessions.map(s => (s"${s.sim.spec.name}/${s.objective.beta}/${s.settings.seed}", s))
    Round(cells.size, failed, wall, keyed.map { case (k, s) => (k, 1, s.wallSec) },
      keyed.map { case (k, s) => (k, s.wallSec * 1e3 / s.observations.size) },
      Map(
        "best_red_pct" -> Stats.mean(sessions.map(s =>
          Stats.reductionPct(s.observations.head.objective, s.history.bestObjective))),
        "infeasible_run_pct" -> 100.0 * runs.count(!_.feasible) / runs.size),
      sessions.map(_.observations.map(o => (o.config, o.objective))),
      Seq("session.count" -> (sessions.size + failed == cells.size),
        "session.clip" -> Bench.clipped(sessions),
        "session.budget" -> sessions.forall(_.observations.size == Bench.Budget)))
  }

  def finalChecks(first: Round): Seq[(String, Boolean)] = {
    val again = run(cells.head).observations.map(o => (o.config, o.objective))
    val firstHist = first.fingerprint.asInstanceOf[Seq[Vector[(Config, Double)]]].head
    Seq("session.rerun_identical" -> (again == firstHist))
  }

  def replay(tr: Trace, warmUp: Boolean): Double = {
    val sessions = if (warmUp) last.take(24) else last
    sessions.foreach(Replay.session(_, tr))
    sessions.map(_.wallSec).sum
  }

  def close(): Unit = ()
}

object SessionBench {
  final case class Cell(spec: WorkloadSpec, beta: Double, tunerSeed: Long)
}

/** `fleet`: the Table 3 path, `TuningService.tuneFleet(FleetGen.fleet(n,
  * seed), budget 20, withMeta = true)` on local[nproc]. */
final class FleetBench(seed: Long, n: Int) extends Bench {
  val name = "fleet"
  private val budget = 20
  private var tasks: Vector[ProdTask] = Vector.empty
  private var session: SparkSession = _
  // A fixed task sample for the serial per-task timings of the traced pass.
  private val sampleSize = 24

  def sizes: Map[String, Any] = Map("tasks" -> n, "budget" -> budget, "fleet_seed" -> seed,
    "traced_sample" -> sampleSize)
  def spark: Option[SparkSession] = Option(session)

  def setUp(): Unit = {
    if (session != null) session.stop()
    session = Bench.sparkSession()
    tasks = FleetGen.fleet(n, seed)
    TuningService.tuneFleet(session, tasks.take(120), budget).collect()
  }

  def round(): Round = {
    val sp = session
    import sp.implicits._
    val timed = try {
      val (rows, wall) = Trace.seconds(TuningService.tuneFleet(sp, tasks, budget, withMeta = true)
        .mapPartitions(FleetBench.timeEach).collect().toSeq)
      Some((rows, wall))
    } catch { case NonFatal(_) => None }
    timed match {
      case None => Round(n, n, Double.NaN, Nil, Nil, Map.empty, Nil, Seq("fleet.job" -> false))
      case Some((timedRows, wall)) =>
        val rows = timedRows.map(_._1).sortBy(_.name)
        val t3 = TuningService.aggregate(rows)
        Round(n, 0, wall, Seq(("job", n, wall)), timedRows.map { case (r, ms) => (r.name, ms / budget) },
          Map(
            "best_red_pct" -> Stats.mean(rows.map(r => Stats.reductionPct(r.preCost, r.postCost))),
            "post_mem_red_pct" -> t3.postMem,
            "under_rt_red_pct" -> t3.underRt),
          rows,
          Seq("fleet.count" -> (rows.size == n),
            "fleet.names" -> (rows.map(_.name).toSet == tasks.map(_.name).toSet),
            "fleet.finite" -> rows.forall(r => r.productIterator.forall {
              case d: Double => !d.isNaN && !d.isInfinite
              case _ => true
            })))
    }
  }

  private def warmStarts(kb: (TaskSimilarity.DistanceModel, Vector[repro.meta.SourceTask]),
                         task: ProdTask): Vector[Config] =
    WarmStart.initialConfigs(kb._1, MetaFeatures.fromSpec(task.spec), kb._2)

  /** `TuningService.tuneOne`'s tuner, rebuilt from its public parts so the
    * history (which `FleetRow` does not carry) can be checked and
    * replayed. Returns the session and its post-tuning cost. */
  private def rebuild(task: ProdTask, warm: Vector[Config]): (Session, Double) = {
    val w = TuningService.Window
    val sim = new SparkClusterSim(task.spec, FleetGen.prodSpace)
    val preRt = (0 until w).map(i => sim.run(task.manual, i).runtimeSec).sum / w
    val manualRes = sim.resource(task.manual)
    val objective = Objective(beta = 0.5).withConstraintsFrom(preRt, manualRes)
    val screened = warm.filter { c =>
      val r = sim.resource(c)
      r >= 0.1 * manualRes && r <= 2.0 * manualRes
    }
    val settings = TunerSettings(seed = task.spec.seed, nInit = 1)
    val start = task.manual +: screened
    val (out, wall) = Trace.seconds(
      new OnlineTuner(sim, objective, settings, start).tune(budget, startIter = w))
    val best = out.history.best.get
    val postRt = (0 until w).map(i => sim.run(best.config, w + budget + i).runtimeSec).sum / w
    (Session(sim, objective, settings, start, w, out.history, wall), postRt * sim.resource(best.config))
  }

  def finalChecks(first: Round): Seq[(String, Boolean)] = {
    val kb = TuningService.buildKnowledgeBase()
    val row0 = first.fingerprint.asInstanceOf[Seq[FleetRow]].find(_.name == tasks.head.name)
    val warm = warmStarts(kb, tasks.head)
    val serial = TuningService.tuneOne(tasks.head, budget, TunerSettings(), warm)
    val (s, postCost) = rebuild(tasks.head, warm)
    Seq("fleet.serial_equals_spark" -> row0.contains(serial),
      "fleet.rebuild_equals_tune_one" -> (postCost == serial.postCost),
      "fleet.session_clip" -> Bench.clipped(Seq(s)),
      "fleet.manual_clip" -> tasks.forall(t => FleetGen.prodSpace.clip(t.manual) == t.manual))
  }

  def replay(tr: Trace, warmUp: Boolean): Double = {
    val (kb, kbSec) = Trace.seconds(TuningService.buildKnowledgeBase())
    tr.record("meta.kb_build", kbSec)
    val cs = FleetGen.prodSpace
    tr.span("meta.similarity_train")(TaskSimilarity.train(cs,
      kb._2.map(s => (s.metaFeatures, s.surrogate)), nSample = 120, seed = 7L))
    val warm = tasks.map(t => tr.span("meta.warm_start")(warmStarts(kb, t)))
    var wall = 0.0
    var rebuiltOk = true
    tasks.indices.take(if (warmUp) 4 else sampleSize).foreach { i =>
      val row = tr.span("core.tune_one")(TuningService.tuneOne(tasks(i), budget, TunerSettings(), warm(i)))
      val (s, postCost) = rebuild(tasks(i), warm(i))
      rebuiltOk &&= postCost == row.postCost
      Replay.session(s, tr)
      wall += s.wallSec
    }
    if (!rebuiltOk) tr.count("check.fleet.rebuild_mismatch")
    wall
  }

  def close(): Unit = if (session != null) session.stop()
}

object FleetBench {
  /** Rows of a partition come out one tuned task at a time, so the gap
    * between consecutive rows is that task's tuning time (ms). */
  def timeEach(rows: Iterator[FleetRow]): Iterator[(FleetRow, Double)] = {
    var prev = System.nanoTime()
    rows.map { r =>
      val now = System.nanoTime()
      val ms = (now - prev) / 1e6
      prev = now
      (r, ms)
    }
  }
}

/** `compare`: all seven §6.3 methods over a Spark Dataset. The job is a
  * copy of `HiBenchCompareJob.allCells(seeds = k, budget 30)`, kept in the
  * harness so the seed can shift the method seeds and each cell is timed;
  * seed 0 gives exactly allCells' cells, and `finalChecks` checks the copy
  * against allCells itself. */
final class CompareBench(seed: Long, k: Int) extends Bench {
  import CompareBench.combosOf
  val name = "compare"
  private val methods = Baselines.all.map(_.name)
  private val tasks = Workloads.six.map(_.name)
  private val combos = combosOf(seed, k)
  private var session: SparkSession = _

  def sizes: Map[String, Any] = Map("cells" -> combos.size, "budget" -> Bench.Budget,
    "seeds_per_cell" -> k, "methods" -> methods, "tasks" -> tasks)
  def spark: Option[SparkSession] = Option(session)

  def setUp(): Unit = {
    if (session != null) session.stop()
    session = Bench.sparkSession()
    cells(combos.filter(c => tasks.take(3).contains(c._1)))
  }

  private def cells(cs: Seq[(String, String, Long, Double)]): Seq[(HiBenchCompareJob.Cell, Double)] = {
    val sp = session
    import sp.implicits._
    sp.createDataset(cs).repartition(sp.sparkContext.defaultParallelism * 2)
      .map(CompareBench.timedCell).collect().toSeq
  }

  /** Objective of the default configuration's first run — every method's
    * trial 1 — per (task, β). */
  private val startObjective: Map[(String, Double), Double] = (for {
    t <- tasks; b <- Vector(1.0, 0.5)
  } yield {
    val (sim, default, obj) = Bench.hibenchStart(Workloads.byName(t), b)
    (t, b) -> obj.value(sim.run(default, 0))
  }).toMap

  def round(): Round = {
    val timed = try Some(Trace.seconds(cells(combos))) catch { case NonFatal(_) => None }
    timed match {
      case None => Round(combos.size, combos.size, Double.NaN, Nil, Nil, Map.empty, Nil,
        Seq("compare.job" -> false))
      case Some((out, wall)) =>
        val cs = out.map(_._1).sortBy(c => (c.task, c.method, c.seed, c.beta))
        val rt = HiBenchCompareJob.means(cs, 1.0)
        val cost = HiBenchCompareJob.means(cs, 0.5).map { case (key, v) => key -> v * v }
        Round(combos.size, 0, wall, Seq(("job", combos.size, wall)),
          out.map { case (c, ms) => (s"${c.task}/${c.method}/${c.seed}/${c.beta}", ms) },
          Map(
            "best_red_pct" -> Stats.mean(cs.map(c =>
              Stats.reductionPct(startObjective((c.task, c.beta)), c.best))),
            "fig4_ours_speedup" -> Stats.mean(tasks.map(t =>
              rt((t, "RandomSearch")) / rt((t, "Ours")))),
            "fig5_ours_cost_red_pct" -> Stats.mean(tasks.map(t =>
              Stats.reductionPct(cost((t, "RandomSearch")), cost((t, "Ours")))))),
          cs,
          Seq("compare.count" -> (cs.size == combos.size),
            "compare.cells" -> (cs.map(c => (c.task, c.method, c.seed, c.beta)).toSet ==
              combos.toSet)))
    }
  }

  private def baselineSession(t: String, m: String, s: Long, b: Double, tr: Option[Trace]): Session = {
    val (sim, default, obj) = Bench.hibenchStart(Workloads.byName(t), b)
    val tuner = Baselines.all.find(_.name == m).get
    val (h, wall) = Trace.seconds(tuner.tune(sim, obj, Bench.Budget, s, Vector(default)))
    tr.foreach(_.record(s"baselines.$m", wall))
    Session(sim, obj, TunerSettings(seed = s), Vector(default), 0, h, wall)
  }

  def finalChecks(first: Round): Seq[(String, Boolean)] = {
    val (t, m, s, b) = combos.head
    val serial = HiBenchCompareJob.runOne(t, m, b, s, Bench.Budget)
    val fromSpark = first.fingerprint.asInstanceOf[Seq[HiBenchCompareJob.Cell]]
      .find(c => c.task == t && c.method == m && c.seed == s && c.beta == b)
    val perMethod = methods.map(meth => baselineSession(t, meth, s, b, None))
    def sorted(cs: Seq[HiBenchCompareJob.Cell]) = cs.sortBy(c => (c.task, c.method, c.seed, c.beta))
    val copy = sorted(cells(combosOf(0, 1)).map(_._1))
    val job = sorted(HiBenchCompareJob.allCells(session, seeds = 1, budget = Bench.Budget))
    Seq("compare.serial_equals_spark" -> fromSpark.contains(serial),
      "compare.copy_equals_all_cells" -> (copy == job),
      "compare.clip" -> Bench.clipped(perMethod))
  }

  def replay(tr: Trace, warmUp: Boolean): Double = {
    val s0 = combos.head._3
    var wall = 0.0
    for (t <- tasks.take(if (warmUp) 1 else tasks.size); b <- Vector(1.0, 0.5); m <- methods) {
      val s = baselineSession(t, m, s0, b, Some(tr))
      m match {
        case "Ours" => Replay.session(s, tr); wall += s.wallSec
        case "RFHOC" => Replay.rfhoc(s, 1, tr)
        case "DAC" => Replay.dac(s, 1, tr)
        case _ =>
      }
    }
    wall
  }

  def close(): Unit = if (session != null) session.stop()
}

object CompareBench {
  /** (task, method, method seed, β) of every cell; `HiBenchCompareJob.allCells`
    * makes the seed-0 ones. */
  def combosOf(seed: Long, k: Int): Vector[(String, String, Long, Double)] = for {
    t <- Workloads.six.map(_.name); m <- Baselines.all.map(_.name)
    s <- (0 until k).toVector; b <- Vector(1.0, 0.5)
  } yield (t, m, (seed * k + s) * 997 + 13, b)

  /** One cell as `HiBenchCompareJob.allCells` runs it, with its wall time
    * per iteration (ms). */
  def timedCell(c: (String, String, Long, Double)): (HiBenchCompareJob.Cell, Double) = {
    val (cell, sec) = Trace.seconds(HiBenchCompareJob.runOne(c._1, c._2, c._4, c._3, Bench.Budget))
    (cell, sec * 1e3 / Bench.Budget)
  }
}
