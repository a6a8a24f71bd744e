package repro.bo

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TunerSettings
import repro.importance.FAnova
import repro.space.SparkParams

class SubspaceSpec extends AnyFunSuite {
  private val cs = SparkParams.space()

  /** The tuner's sub-space (§4: K_init=10, K_min=4, τ_succ=3, τ_fail=5). */
  private def fresh: Subspace = fresh(TunerSettings())
  private def fresh(s: TunerSettings) =
    new Subspace(cs, SparkParams.ExpertRanking, s.kInit, s.kMin, s.tauSucc, s.tauFail)

  test("initial size is K_init = 10") { assert(fresh.size == 10) }

  test("free dims are the top-K of the expert ranking initially") {
    val s = fresh
    val expected = SparkParams.ExpertRanking.take(10).map(cs.indexOf).toSet
    assert(s.freeDims == expected)
  }

  test("three consecutive successes grow the sub-space by 2 (τ_succ=3)") {
    val s = fresh
    (1 to 3).foreach(_ => s.observe(improved = true))
    assert(s.size == 12)
  }

  test("five consecutive failures shrink the sub-space by 2 (τ_fail=5)") {
    val s = fresh
    (1 to 5).foreach(_ => s.observe(improved = false))
    assert(s.size == 8)
  }

  test("interleaved outcomes reset the streak counters") {
    val s = fresh
    s.observe(true); s.observe(true); s.observe(false)
    s.observe(true); s.observe(true); s.observe(false)
    assert(s.size == 10) // never 3 in a row
  }

  test("size never exceeds K_max = dim") {
    val s = fresh
    (1 to 60).foreach(_ => s.observe(improved = true))
    assert(s.size == cs.dim)
  }

  test("size never drops below K_min = 4") {
    val s = fresh
    (1 to 100).foreach(_ => s.observe(improved = false))
    assert(s.size == 4)
  }

  test("counters reset after a resize (growth needs a fresh streak)") {
    val s = fresh
    (1 to 3).foreach(_ => s.observe(true)) // -> 12, counters reset
    s.observe(true); s.observe(true)
    assert(s.size == 12) // only 2 successes since resize
    s.observe(true)
    assert(s.size == 14)
  }

  test("maybeRefit replaces the ranking from history via fANOVA") {
    val s = fresh
    val rng = new Random(3)
    val iMem = cs.indexOf(SparkParams.ExecMemory)
    // Synthetic history where only executor.memory matters.
    val configs = Vector.fill(40)(cs.sampleRandom(rng))
    val ys = configs.map(c => cs.toUnit(c)(iMem) * 10.0)
    val prior = s.currentRanking
    (1 to 4).foreach { _ =>
      s.maybeRefit(configs, ys, seed = 1)
      assert(s.currentRanking == prior)
    }
    s.maybeRefit(configs, ys, seed = 1)
    assert(s.currentRanking.head == iMem)
  }

  test("maybeRefit is a no-op below the history threshold") {
    val s = fresh
    val rng = new Random(6)
    val iMem = cs.indexOf(SparkParams.ExecMemory)
    val configs = Vector.fill(8)(cs.sampleRandom(rng))
    val ys = configs.map(c => cs.toUnit(c)(iMem) * 10.0)
    val before = s.currentRanking
    (1 to 6).foreach(_ => s.maybeRefit(configs.take(7), ys.take(7), 0))
    assert(s.currentRanking == before)
    // Past the fifth call, the first call on 8 runs refits.
    s.maybeRefit(configs, ys, 0)
    assert(s.currentRanking != before)
  }

  test("freeze fixes the fANOVA top-K_init: no expert prior, no resize, no refit") {
    val s = fresh(TunerSettings(kInit = 8))
    val rng = new Random(4)
    val iMem = cs.indexOf(SparkParams.ExecMemory)
    val configs = Vector.fill(12)(cs.sampleRandom(rng))
    val ys = configs.map(c => cs.toUnit(c)(iMem) * 10.0 + rng.nextDouble())
    (1 to 3).foreach(_ => s.observe(improved = true)) // resized before the freeze
    s.freeze(configs, ys, seed = 7)
    val ranking = FAnova.importance(cs, configs, ys, seed = 7).ranking
    assert(s.currentRanking == ranking)
    assert(s.size == 8)
    assert(s.freeDims == ranking.take(8).toSet)
    (1 to 10).foreach(_ => s.observe(improved = true))
    (1 to 10).foreach(_ => s.observe(improved = false))
    (1 to 5).foreach(_ => s.maybeRefit(configs.reverse, ys.reverse.map(-_), seed = 8))
    assert(s.size == 8)
    assert(s.currentRanking == ranking)
  }

  test("the fANOVA ranking equals FAnova.importance's ranking on the same history") {
    val rng = new Random(5)
    val idx = Seq(SparkParams.ExecMemory, SparkParams.ExecCores, SparkParams.Instances).map(cs.indexOf)
    (1 to 4).foreach { seed =>
      val configs = Vector.fill(20 + 5 * seed)(cs.sampleRandom(rng))
      val ys = configs.map { c =>
        val u = cs.toUnit(c)
        3.0 * u(idx(0)) + u(idx(1)) * u(idx(2)) + 0.1 * rng.nextDouble()
      }
      val s = fresh
      s.freeze(configs, ys, seed.toLong)
      assert(s.currentRanking == FAnova.importance(cs, configs, ys, seed.toLong).ranking, s"seed $seed")
    }
  }
}
