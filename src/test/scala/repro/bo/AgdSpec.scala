package repro.bo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TunerSettings
import repro.space.{Config, SparkParams}
import repro.surrogate.{Pred, Surrogate}

class AgdSpec extends AnyFunSuite {
  private val cs = SparkParams.space()
  private val iInst = cs.indexOf(SparkParams.Instances)

  /** Runtime surrogate that increases linearly in the instances unit coord
    * — gradient descent on β=1 should therefore *decrease* instances. */
  private val upInInstances: Surrogate = new Surrogate {
    def predict(x: Array[Double]): Pred = Pred(100.0 + 1000.0 * x(iInst), 1.0)
  }

  /** Runtime surrogate decreasing in instances — AGD should increase them
    * when β=1 (pure runtime). */
  private val downInInstances: Surrogate = new Surrogate {
    def predict(x: Array[Double]): Pred = Pred(1100.0 - 1000.0 * x(iInst), 1.0)
  }

  /** The tuner's learning rate η (§4: 0.001). */
  private val eta = TunerSettings().agdEta

  private def mid: Config = {
    val u = Array.fill(cs.dim)(0.5)
    cs.fromUnit(u)
  }

  test("AGD with β=1 moves against the runtime gradient") {
    val agd = new Agd(cs, beta = 1.0, resourceOf = _ => 10.0, eta = eta)
    val c1 = agd.step(mid, upInInstances, Array.empty)
    assert(cs.toUnit(c1)(iInst) < cs.toUnit(mid)(iInst))
    val c2 = agd.step(mid, downInInstances, Array.empty)
    assert(cs.toUnit(c2)(iInst) > cs.toUnit(mid)(iInst))
  }

  test("AGD with β=0 descends the resource function only") {
    // Resource grows with raw instances; runtime flat.
    val flatRt: Surrogate = new Surrogate {
      def predict(x: Array[Double]): Pred = Pred(100.0, 1.0)
    }
    val agd = new Agd(cs, beta = 0.0,
      resourceOf = c => cs.value(c, SparkParams.Instances) * 5.0, eta = 0.01)
    val c1 = agd.step(mid, flatRt, Array.empty)
    assert(cs.value(c1, SparkParams.Instances) < cs.value(mid, SparkParams.Instances))
  }

  test("AGD leaves categorical dimensions untouched") {
    val agd = new Agd(cs, beta = 0.5, resourceOf = _ => 10.0, eta = eta)
    val c0 = mid
    val c1 = agd.step(c0, upInInstances, Array.empty)
    (0 until cs.dim).filter(cs.isCat).foreach(i => assert(c1(i) == c0(i)))
  }

  test("AGD steps are clipped to maxStep in unit space") {
    val steep: Surrogate = new Surrogate {
      def predict(x: Array[Double]): Pred = Pred(1e9 * x(iInst), 1.0)
    }
    val agd = new Agd(cs, beta = 1.0, resourceOf = _ => 1.0, eta = 1.0)
    val c1 = agd.step(mid, steep, Array.empty)
    // Agd clips every step to 0.05 in the unit cube.
    val moved = math.abs(cs.toUnit(c1)(iInst) - cs.toUnit(mid)(iInst))
    // Integer snapping on the raw scale can round the unit coordinate a bit.
    assert(moved >= 0.05 - 0.02 && moved <= 0.05 + 0.02)
  }

  test("AGD result stays inside the configuration space") {
    val agd = new Agd(cs, beta = 0.5, resourceOf = _ => 10.0, eta = 10.0)
    val c1 = agd.step(mid, upInInstances, Array.empty)
    assert(cs.clip(c1) == c1)
  }

  test("AGD passes the data-size extra dim through to the surrogate") {
    var sawDim = -1
    val probe: Surrogate = new Surrogate {
      def predict(x: Array[Double]): Pred = { sawDim = x.length; Pred(1.0, 1.0) }
    }
    val agd = new Agd(cs, beta = 1.0, resourceOf = _ => 1.0, eta = eta)
    agd.step(mid, probe, Array(0.42))
    assert(sawDim == cs.dim + 1)
  }
}
