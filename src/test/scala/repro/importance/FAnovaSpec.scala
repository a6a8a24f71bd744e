package repro.importance

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.model.RandomForest
import repro.space.{ConfigSpace, DoubleParam, CatParam, Config}

class FAnovaSpec extends AnyFunSuite {
  private val cs = new ConfigSpace(Vector(
    DoubleParam("a", 0.0, 1.0), DoubleParam("b", 0.0, 1.0),
    DoubleParam("c", 0.0, 1.0), CatParam("d", Vector("x", "y"))))

  private def history(f: Config => Double, n: Int = 150, seed: Int = 1) = {
    val r = new Random(seed)
    val configs = Vector.fill(n)(cs.sampleRandom(r))
    (configs, configs.map(f))
  }

  test("dominant parameter gets the highest importance") {
    val (xs, ys) = history(c => 10.0 * c(0) + 0.5 * c(1))
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 2)
    assert(res.ranking.head == 0)
    assert(res.single(0) > res.single(1))
    assert(res.single(0) > 0.5)
  }

  test("irrelevant parameters get near-zero importance") {
    val (xs, ys) = history(c => 5.0 * c(0))
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 3)
    assert(res.single(2) < 0.1)
    assert(res.single(3) < 0.1)
  }

  test("categorical effect is detected") {
    val (xs, ys) = history(c => if (c(3) < 0.5) 0.0 else 4.0)
    val res = FAnova.importance(cs, xs, ys, nMc = 150, seed = 4)
    assert(res.ranking.head == 3)
  }

  test("constant objective yields all-zero importances") {
    val (xs, _) = history(_ => 1.0)
    val res = FAnova.importance(cs, xs, Vector.fill(xs.size)(1.0), seed = 5)
    assert(res.single.forall(_ == 0.0))
  }

  /** Clone-per-point reference: predict every background point with one
    * dimension set to each grid value, using FAnova's forest, background
    * and grid for the same seed. */
  private def naiveSingle(configs: Seq[Config], ys: Seq[Double],
                          nMc: Int, nGrid: Int, seed: Long): Vector[Double] = {
    val rf = RandomForest.fit(configs.map(cs.toUnit).toArray, ys.toArray,
      nTrees = 24, maxDepth = 8, seed = seed)
    val rng = new Random(seed)
    val bg = Array.fill(nMc)(Array.fill(cs.dim)(rng.nextDouble()))
    val preds = bg.map(rf.predict)
    val mu = preds.sum / preds.length
    val totalVar = preds.map(p => (p - mu) * (p - mu)).sum / preds.length
    if (totalVar <= 1e-12) return Vector.fill(cs.dim)(0.0)
    Vector.tabulate(cs.dim) { i =>
      val grid =
        if (cs.isCat(i)) Array.tabulate(cs.cardinality(i))(c => (c + 0.5) / cs.cardinality(i))
        else Array.tabulate(nGrid)(g => (g + 0.5) / nGrid)
      val ms = grid.map { v =>
        var s = 0.0
        bg.foreach { b => val x = b.clone(); x(i) = v; s += rf.predict(x) }
        s / bg.length
      }
      val m = ms.sum / ms.length
      ms.map(x => (x - m) * (x - m)).sum / ms.length
    }.map(_ / totalVar)
  }

  test("one-pass marginals equal the clone-per-point reference to the bit") {
    val targets: Seq[Config => Double] = Seq(
      c => 10.0 * c(0) + 0.5 * c(1) + (if (c(3) < 0.5) 0.0 else 2.0),
      c => c(0) * c(1) * 8.0 - c(2),
      c => if (c(3) < 0.5) 0.0 else 4.0, // categorical-only effect
      _ => 1.0)                         // constant target
    for ((f, fi) <- targets.zipWithIndex; nGrid <- Seq(6, 8); seed <- Seq(11L, 12L, 13L)) {
      val (xs, ys) = history(f, n = 60, seed = fi + 1)
      val got = FAnova.importance(cs, xs, ys, nMc = 40, nGrid = nGrid, seed = seed).single
      val want = naiveSingle(xs, ys, 40, nGrid, seed)
      assert(got.map(java.lang.Double.doubleToRawLongBits) ==
        want.map(java.lang.Double.doubleToRawLongBits), s"target $fi nGrid $nGrid seed $seed")
    }
  }

  test("importance rejects empty history") {
    assertThrows[IllegalArgumentException](
      FAnova.importance(cs, Vector.empty, Vector.empty))
  }

  test("aggregate computes per-parameter mean and std") {
    val r1 = FAnova.Result(Vector(0.4, 0.2, 0.0, 0.0))
    val r2 = FAnova.Result(Vector(0.2, 0.4, 0.0, 0.0))
    val agg = FAnova.aggregate(Seq(r1, r2))
    assert(math.abs(agg(0)._1 - 0.3) < 1e-12)
    assert(math.abs(agg(0)._2 - 0.1) < 1e-12)
    assert(agg(2)._1 == 0.0 && agg(2)._2 == 0.0)
  }

  test("ranking sorts descending by importance") {
    val res = FAnova.Result(Vector(0.1, 0.5, 0.3, 0.0))
    assert(res.ranking == Vector(1, 2, 0, 3))
  }
}
