package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{OnlineTuner, TunerSettings}
import repro.env.Workloads
import repro.jobs.HiBenchCompareJob

/** §6.5 sub-space and AGD ablations.
  *
  * Sub-space (Figure 7): tuning PageRank/TeraSort with the full 30-dim
  * space vs a sub-space of fixed size 6 vs the adaptive sub-space; the
  * adaptive method should track the better of the two everywhere.
  *
  * AGD (Figure 9): enabling approximate gradient descent reduces cost by
  * ~7.47% on average relative to vanilla BO across the six tasks (slight
  * regression allowed on one task, as the paper observed on NWeight).
  */
class BenchSubspaceAgd extends AnyFunSuite {
  private val Seeds = 3

  /** Each session's (best, mean) objective: later tests reuse earlier sessions. */
  private val sessions = collection.mutable.Map.empty[(String, TunerSettings), (Double, Double)]

  /** (best objective, mean objective over the session), seed-averaged.
    * The paper's Fig. 7(b) compares the *average cost during optimization*
    * — the metric where space reduction pays; best-found is Fig. 7(a). */
  private def costs(task: String, mutate: TunerSettings => TunerSettings): (Double, Double) = {
    val (sim, default, obj) = HiBenchCompareJob.start(Workloads.byName(task), 0.5)
    val vals = (0 until Seeds).map { s =>
      val settings = mutate(TunerSettings(seed = 17 * s + 3))
      sessions.getOrElseUpdate((task, settings), {
        val h = new OnlineTuner(sim, obj, settings, Vector(default)).tune(30).history
        (h.bestObjective, h.all.map(_.objective).sum / h.size)
      })
    }
    (vals.map(_._1).sum / vals.size, vals.map(_._2).sum / vals.size)
  }

  test("sub-space ablation on PageRank and TeraSort (prints Figure-7 table)") {
    val rows = Seq("pagerank", "terasort").map { t =>
      val full = costs(t, _.copy(useSubspace = false))
      val small = costs(t, _.copy(kInit = 6, kMin = 6, tauSucc = Int.MaxValue,
        tauFail = Int.MaxValue)) // size fixed at 6; fANOVA refits still pick which 6
      val adaptive = costs(t, identity)
      (t, full, small, adaptive)
    }
    info(f"${"task"}%-10s ${"metric"}%-6s ${"full(30)"}%12s ${"small(6)"}%12s ${"adaptive"}%12s")
    rows.foreach { case (t, f, s, a) =>
      info(f"$t%-10s best   ${f._1}%12.2f ${s._1}%12.2f ${a._1}%12.2f")
      info(f"$t%-10s avg    ${f._2}%12.2f ${s._2}%12.2f ${a._2}%12.2f")
    }
    rows.foreach { case (t, full, small, adaptive) =>
      // Fig. 7(a): adaptive's best tracks the better of full/small (slack).
      assert(adaptive._1 <= math.max(full._1, small._1) * 1.10, t)
    }
  }

  test("sub-space keeps the average cost below full-space search (Fig. 7b)") {
    val tasks = Seq("pagerank", "terasort")
    val full = tasks.map(t => costs(t, _.copy(useSubspace = false))._2).sum
    val adaptive = tasks.map(t => costs(t, identity)._2).sum
    assert(adaptive <= full * 1.05, f"adaptive avg $adaptive%.1f vs full avg $full%.1f")
  }

  test("AGD ablation across the six tasks (prints Figure-9 table)") {
    val rows = Workloads.six.map(_.name).map { t =>
      val withAgd = costs(t, identity)._1
      val without = costs(t, _.copy(useAgd = false))._1
      (t, withAgd, without)
    }
    info(f"${"task"}%-10s ${"BO+AGD"}%12s ${"BO"}%12s ${"delta%"}%8s")
    rows.foreach { case (t, w, wo) =>
      info(f"$t%-10s $w%12.2f $wo%12.2f ${100 * (wo - w) / wo}%8.2f")
    }
    // Average effect is non-negative (paper: +7.47% cost reduction, with
    // one task allowed to regress slightly).
    val avgWith = rows.map(_._2).sum / rows.size
    val avgWithout = rows.map(_._3).sum / rows.size
    assert(avgWith <= avgWithout * 1.05,
      f"AGD avg $avgWith%.1f vs vanilla $avgWithout%.1f")
  }

  test("meta-learning ensemble accelerates early iterations (Figure 6 shape)") {
    // KMeans with a surrogate transferred from SVD (its similar source).
    val (sim, default, obj) = HiBenchCompareJob.start(Workloads.KMeans, 0.5)
    val (srcSim, _, srcObj) = HiBenchCompareJob.start(Workloads.SVD, 0.5)
    val srcHist = new OnlineTuner(srcSim, srcObj, TunerSettings(seed = 5),
      Vector(default)).tune(25).history
    val src = repro.meta.SourceTask.fromHistory(sim.cs, "svd",
      repro.meta.MetaFeatures.fromSpec(Workloads.SVD), srcHist.all)
    def bestAt10(meta: Boolean, seed: Long): Double = {
      val bases = if (meta) Vector((src.surrogate, 0.8)) else Vector.empty
      new OnlineTuner(sim, obj, TunerSettings(seed = seed), Vector(default), bases)
        .tune(10).history.bestObjective
    }
    val withMeta = (0 until Seeds).map(s => bestAt10(meta = true, 101 + s)).sum / Seeds
    val without = (0 until Seeds).map(s => bestAt10(meta = false, 101 + s)).sum / Seeds
    info(f"KMeans best cost @10 iters: with meta $withMeta%.2f, without $without%.2f")
    assert(withMeta <= without * 1.15)
  }
}
