package repro.baselines

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Observation, RunHistory}
import repro.env.{FleetGen, Workloads}
import repro.jobs.HiBenchCompareJob
import repro.space.{Config, ConfigSpace}

class BaselinesSpec extends AnyFunSuite {
  private val cs = HiBenchCompareJob.cs
  private val (sim, default, obj) = HiBenchCompareJob.start(Workloads.WordCount, 0.5)

  test("all §6.3 methods are present, names unique, ours included") {
    val names = Baselines.all.map(_.name)
    assert(names == Vector("RandomSearch", "RFHOC", "DAC", "CherryPick",
      "Tuneful", "LOCAT", "Ours"))
    assert(names.distinct.size == names.size)
  }

  test("every baseline produces exactly budget observations") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 8, seed = 1, init = Vector(default))
      assert(h.size == 8, b.name)
    }
  }

  test("every baseline evaluates the init config first") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 6, seed = 2, init = Vector(default))
      assert(h.all.head.config == default, b.name)
    }
  }

  test("every baseline's history improves on (or matches) its first trial") {
    Baselines.all.foreach { b =>
      val h = b.tune(sim, obj, budget = 12, seed = 3, init = Vector(default))
      assert(h.bestObjective <= h.all.head.objective, b.name)
    }
  }

  private def byName(name: String): Method = Baselines.all.find(_.name == name).get

  test("baselines are deterministic in their seed") {
    Baselines.all.foreach { b =>
      def run(seed: Long) = b.tune(sim, obj, 12, seed, Vector(default)).all.map(_.objective)
      assert(run(11) == run(11), b.name)
    }
  }

  test("every method's controller serves its init and, driven by hand, matches tune") {
    Baselines.all.foreach { m =>
      val c = m.controller(sim, obj, 4, Vector(default))
      val h = new RunHistory
      (0 until 12).foreach { it =>
        val config = c.suggest(h, sim.spec.dataSizeAt(it)).get
        val result = sim.run(config, it)
        val y = obj.value(result)
        val improved = obj.feasible(result) && y < h.bestObjective
        h.add(Observation(config, result, y, obj.feasible(result), it))
        c.observe(h, improved)
      }
      assert(h.all.head.config == default, m.name)
      assert(h.all == m.tune(sim, obj, 12, 4, Vector(default)).all, m.name)
    }
  }

  test("GA search improves the fitness over its seed population") {
    val rng = new Random(5)
    val target = cs.toUnit(FleetGen.manualConfig(cs, 16, 4, 8))
    def fitness(c: repro.space.Config): Double =
      cs.toUnit(c).zip(target).map { case (a, b) => (a - b) * (a - b) }.sum
    val seedPop = cs.sampleRandom(rng, 5)
    val best = BaselineUtilProbe.ga(cs, seedPop, fitness, rng)
    assert(fitness(best) < seedPop.map(fitness).min)
  }

  test("GA search scores each config once and returns the reference GA's pick") {
    val target = cs.toUnit(FleetGen.manualConfig(cs, 16, 4, 8))
    // Rounded so that many configs tie: the stable sort and minBy's
    // first-minimum rule decide between them.
    def fitness(c: Config): Double =
      math.round(10 * cs.toUnit(c).zip(target).map { case (a, b) => (a - b) * (a - b) }.sum) / 10.0
    (0 until 8).foreach { seed =>
      val seedPop = cs.sampleRandom(new Random(seed + 100), 5)
      var calls = 0
      val got = BaselineUtilProbe.ga(cs, seedPop, c => { calls += 1; fitness(c) }, new Random(seed))
      assert(calls == 280, s"seed $seed")
      val want = BaselinesSpec.referenceGa(cs, seedPop, fitness, new Random(seed))
      assert(got == want, s"seed $seed")
    }
  }

  // SHA-256 over the raw bits of every config value and objective of a
  // 30-iteration TeraSort session, in history order, as in OnlineTunerSpec.
  private def digest(name: String, beta: Double): String = {
    val (tsim, tDefault, tObj) = HiBenchCompareJob.start(Workloads.TeraSort, beta)
    val h = byName(name).tune(tsim, tObj, 30, 13, Vector(tDefault))
    assert(h.size == 30)
    val buf = java.nio.ByteBuffer.allocate(h.all.map(_.config.values.size + 1).sum * 8)
    h.all.foreach { o =>
      o.config.values.foreach(v => buf.putLong(java.lang.Double.doubleToRawLongBits(v)))
      buf.putLong(java.lang.Double.doubleToRawLongBits(o.objective))
    }
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .map(x => f"${x & 0xff}%02x").mkString
  }

  test("golden histories: RandomSearch on TeraSort hashes to recorded digests") {
    assert(digest("RandomSearch", 1.0) == "d251cc4f377e38ced6af2d999989bfb9b5e8d000f8d534b2c05a7a25cd2b3f5a")
    assert(digest("RandomSearch", 0.5) == "d53417565ddb58a433a9b00185d847894163985b7cc1e8206f5a08006b34b161")
  }

  test("golden histories: RFHOC and DAC on TeraSort hash to recorded digests") {
    assert(digest("RFHOC", 1.0) == "2d25837249c9822f41ecf0a96038948db1ef5c0395ceed0f56d9125f92b56a54")
    assert(digest("RFHOC", 0.5) == "946f9998a8dcc6b05aeca1407fffb53769f6e3a817b7942626404ed15e7dabcc")
    assert(digest("DAC", 1.0) == "6d885b55411bae5803300b84be054f485ea6e489b997aa8c200e312d8c0ac7ec")
    assert(digest("DAC", 0.5) == "e08c4f68719bdab902d7783029efd40c8513082fa5db7388e729d991d85178fa")
  }

  test("golden histories: CherryPick, Tuneful and LOCAT presets on TeraSort hash to recorded digests") {
    assert(digest("CherryPick", 1.0) == "ba251c414caa354b2caed5219ad45230e52168b0bfc7156278e1753026427a2f")
    assert(digest("CherryPick", 0.5) == "cc7b7f4f7307b213bf41130544ba1d982072f3298787d851aadada070fc4200c")
    assert(digest("Tuneful", 1.0) == "7555d5baaa2c51b8d00cff227c5252f0f121d27914a5bf6c9949be0e66f6d9fb")
    assert(digest("Tuneful", 0.5) == "828604336539ae1fc6df52ad63f2b4fae679ff596c37ea74bda90b8d51e9747c")
    assert(digest("LOCAT", 1.0) == "c1934377f49751cc51f6f04da6af66a07c7b984bab67fca0f58ece55f8dd3a64")
    assert(digest("LOCAT", 0.5) == "91d716f2909cdb11eb165295c6364539e4069fbac04b7f62421f6f9c90d9f026")
  }

  test("BO-based baselines beat random search on average (seeded smoke)") {
    def bestOf(b: Method, seeds: Seq[Long]): Double =
      seeds.map(s => b.tune(sim, obj, 15, s, Vector(default)).bestObjective).sum / seeds.size
    // Smoke-level check only (15 iters, 3 seeds, one task) — the real
    // comparison with 30 iters × 6 tasks is BenchFigure45.
    val seeds = Seq(1L, 2L, 3L)
    val rs = bestOf(Baselines.RandomSearch, seeds)
    Seq("CherryPick", "Tuneful", "LOCAT", "Ours").foreach { m =>
      val bo = bestOf(byName(m), seeds)
      info(f"$m: ${bo / rs}%.3f of random search")
      assert(bo <= rs * 1.15, m)
    }
  }
}

object BaselinesSpec {
  /** `BaselineUtil.gaSearch` as it was before fitness was memoised: every
    * generation rescores its whole population, and the final pick scores it
    * again. Kept as the reference for the memoised GA. */
  def referenceGa(cs: ConfigSpace, seedPop: Vector[Config], fitness: Config => Double,
                  rng: Random, generations: Int = 8, popSize: Int = 40): Config = {
    var pop = (seedPop ++ cs.sampleRandom(rng, popSize)).take(popSize)
    var g = 0
    while (g < generations) {
      val scored = pop.map(c => (c, fitness(c))).sortBy(_._2)
      val elite = scored.take(popSize / 4).map(_._1)
      val children = Vector.fill(popSize - elite.size) {
        val a = cs.toUnit(elite(rng.nextInt(elite.size)))
        val b = cs.toUnit(elite(rng.nextInt(elite.size)))
        val x = Array.tabulate(cs.dim)(i => if (rng.nextBoolean()) a(i) else b(i))
        var i = 0
        while (i < cs.dim) {
          if (rng.nextDouble() < 0.15)
            x(i) = if (cs.isCat(i)) rng.nextInt(cs.cardinality(i)).toDouble
                   else (x(i) + rng.nextGaussian() * 0.15).max(0.0).min(1.0)
          i += 1
        }
        cs.fromUnit(x)
      }
      pop = elite ++ children
      g += 1
    }
    pop.minBy(fitness)
  }
}

/** Exposes the package-private GA for testing. */
object BaselineUtilProbe {
  def ga(cs: repro.space.ConfigSpace, seedPop: Vector[repro.space.Config],
         fitness: repro.space.Config => Double, rng: Random): repro.space.Config =
    BaselineUtil.gaSearch(cs, seedPop, fitness, rng)
}
