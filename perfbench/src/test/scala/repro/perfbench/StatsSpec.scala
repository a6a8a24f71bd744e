package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def close(a: Double, b: Double) = math.abs(a - b) < 1e-12

  test("percentile interpolates between closest ranks and reports its sample count") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0, 5.0)
    assert(Stats.percentile(xs, 50) == Stats.Pct(3.0, 5))
    assert(Stats.percentile(xs, 0).value == 1.0)
    assert(Stats.percentile(xs, 100).value == 5.0)
    assert(close(Stats.percentile(xs, 90).value, 4.6))
    assert(close(Stats.percentile(Seq(1.0, 2.0), 50).value, 1.5))
  }

  test("percentile of one sample is that sample; of none is NaN with n = 0") {
    assert(Stats.percentile(Seq(7.0), 90) == Stats.Pct(7.0, 1))
    val empty = Stats.percentile(Nil, 50)
    assert(empty.value.isNaN && empty.n == 0)
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  test("median and mean") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5)
    assert(Stats.mean(Seq(1.0, 2.0, 6.0)) == 3.0)
    assert(Stats.mean(Nil).isNaN)
  }

  test("reduction is positive when the value went down and negative when it went up") {
    assert(Stats.reductionPct(200.0, 50.0) == 75.0)
    assert(Stats.reductionPct(100.0, 230.0) == -130.0)
    assert(Stats.reductionPct(10.0, 10.0) == 0.0)
    assertThrows[IllegalArgumentException](Stats.reductionPct(0.0, 1.0))
  }

  test("slot utilisation is busy time over slots × wall time") {
    // 8 partitions of 3.5 s on 4 slots: two waves, 7 s of wall.
    assert(close(Stats.slotUtil(8 * 3.5, 4, 7.0), 1.0))
    // One 15 s straggler keeps the stage open while three slots idle.
    assert(close(Stats.slotUtil(15.0 + 7 * 2.0, 4, 15.0), 29.0 / 60.0))
    assertThrows[IllegalArgumentException](Stats.slotUtil(1.0, 0, 1.0))
    assertThrows[IllegalArgumentException](Stats.slotUtil(1.0, 4, 0.0))
  }

  test("straggler ratio is the longest task over the mean task") {
    assert(Stats.stragglerRatio(Seq(2.0, 2.0, 2.0)) == 1.0)
    assert(close(Stats.stragglerRatio(Seq(1.0, 1.0, 1.0, 5.0)), 2.5))
    assert(Stats.stragglerRatio(Seq(0.0, 0.0)) == 1.0)
    assertThrows[IllegalArgumentException](Stats.stragglerRatio(Nil))
  }
}
