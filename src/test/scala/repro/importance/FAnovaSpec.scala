package repro.importance

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.model.{RandomForest, RegressionTree}
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
    val res = FAnova.importance(cs, xs, ys, seed = 2)
    assert(res.ranking.head == 0)
    assert(res.single(0) > res.single(1))
    assert(res.single(0) > 0.5)
  }

  test("irrelevant parameters get near-zero importance") {
    val (xs, ys) = history(c => 5.0 * c(0))
    val res = FAnova.importance(cs, xs, ys, seed = 3)
    assert(res.single(2) < 0.1)
    assert(res.single(3) < 0.1)
  }

  test("categorical effect is detected") {
    val (xs, ys) = history(c => if (c(3) < 0.5) 0.0 else 4.0)
    val res = FAnova.importance(cs, xs, ys, seed = 4)
    assert(res.ranking.head == 3)
  }

  test("constant objective yields all-zero importances") {
    val (xs, _) = history(_ => 1.0)
    val res = FAnova.importance(cs, xs, Vector.fill(xs.size)(1.0), seed = 5)
    assert(res.single.forall(_ == 0.0))
  }

  test("a three-category parameter whose last category carries the effect ranks first") {
    // Trees split on category indices (at 0.5 and 1.5 here), so only an
    // estimator that weighs index 2 sees the effect; a weak numeric
    // effect runs alongside.
    val cs3 = new ConfigSpace(Vector(
      DoubleParam("a", 0.0, 1.0), DoubleParam("b", 0.0, 1.0),
      CatParam("codec", Vector("lz4", "snappy", "zstd"))))
    val r = new Random(6)
    val configs = Vector.fill(120)(cs3.sampleRandom(r))
    val ys = configs.map(c => (if (c(2) == 2.0) 3.0 else 0.0) + 0.3 * c(0))
    val res = FAnova.importance(cs3, configs, ys, seed = 8)
    assert(res.ranking.head == 2)
    assert(res.single(2) > 0.5, res.single)
    assert(res.single(2) > 10 * res.single(0), res.single)
  }

  test("a hand-computed tree: marginals, total variance and importances") {
    // f = 6 on category 2, else 0 for x ≤ 0.5 and 3 above. Over x ~ U[0,1]
    // and c uniform on {0,1,2}: E[f | x] is 2 or 4 (V_x = 1); E[f | c] is
    // 1.5, 1.5, 6 (V_c = 4.5); f is 0, 3, 6 with mass 1/3 each (V = 6).
    val cs2 = new ConfigSpace(Vector(DoubleParam("x", 0.0, 1.0), CatParam("c", Vector("p", "q", "r"))))
    val xs = for (x <- Array(0.2, 0.8); c <- Array(0.0, 1.0, 2.0)) yield Array(x, c)
    val tree = RegressionTree.fit(xs, xs.map(p => if (p(1) == 2.0) 6.0 else if (p(0) > 0.5) 3.0 else 0.0),
      maxDepth = 2, minLeaf = 1)
    assert(tree.feature == 1 && tree.threshold == 1.5 && tree.left.feature == 0 && tree.right.isLeaf)
    val rf = new RandomForest(Vector(tree))
    val boxes = new FAnova.Boxes(cs2, rf.trees)
    val v = boxes.marginalVariances
    assert(math.abs(v(0) - 1.0) < 1e-12 && math.abs(v(1) - 4.5) < 1e-12, v)
    assert(math.abs(boxes.totalVariance - 6.0) < 1e-12)
    val imp = FAnova.importance(cs2, rf).single
    assert(math.abs(imp(0) - 1.0 / 6) < 1e-12 && math.abs(imp(1) - 0.75) < 1e-12, imp)
  }

  /** Brute-force reference over a forest: a_i(v) = E_x[f(x | x_i = v)]
    * averaged over `nBackground` background points drawn from the input measure,
    * at `gridSize` grid values per numeric dim (every category for a
    * categorical dim); V_total from the background itself. */
  private def monteCarlo(rf: RandomForest, nBackground: Int, gridSize: Int, seed: Long): Vector[Double] = {
    val r = new Random(seed)
    def draw(i: Int) = if (cs.isCat(i)) r.nextInt(cs.cardinality(i)).toDouble else r.nextDouble()
    val bg = Array.fill(nBackground)(Array.tabulate(cs.dim)(draw))
    val preds = bg.map(rf.predict)
    val mu = preds.sum / nBackground
    val total = preds.map(p => (p - mu) * (p - mu)).sum / nBackground
    Vector.tabulate(cs.dim) { i =>
      val grid =
        if (cs.isCat(i)) Array.tabulate(cs.cardinality(i))(_.toDouble)
        else Array.tabulate(gridSize)(g => (g + 0.5) / gridSize)
      val ms = grid.map(v => bg.map { b => val x = b.clone(); x(i) = v; rf.predict(x) }.sum / nBackground)
      val m = ms.sum / ms.length
      ms.map(x => (x - m) * (x - m)).sum / ms.length / total
    }
  }

  test("exact importances agree with a brute-force Monte-Carlo estimate over the same forest") {
    val targets: Seq[Config => Double] = Seq(
      c => 10.0 * c(0) + 0.5 * c(1) + (if (c(3) < 0.5) 0.0 else 2.0),
      c => c(0) * c(1) * 8.0 - c(2),
      c => if (c(3) < 0.5) 0.0 else 4.0)
    for ((f, fi) <- targets.zipWithIndex) {
      val (xs, ys) = history(f, n = 60, seed = fi + 1)
      val rf = FAnova.forest(cs, xs, ys, seed = 11L + fi)
      val exact = FAnova.importance(cs, rf).single
      val mc = monteCarlo(rf, nBackground = 4000, gridSize = 200, seed = 21L + fi)
      exact.zip(mc).foreach { case (e, m) => assert(math.abs(e - m) < 0.01, s"target $fi: $exact vs $mc") }
    }
  }

  test("marginal variances rank like importances and scale by V_total") {
    val (xs, ys) = history(c => c(0) * c(1) * 8.0 - c(2) + (if (c(3) < 0.5) 0.0 else 1.0), n = 50)
    val rf = FAnova.forest(cs, xs, ys, seed = 3)
    val v = FAnova.marginalVariances(cs, xs, ys, seed = 3)
    val imp = FAnova.importance(cs, xs, ys, seed = 3)
    assert(v.ranking == imp.ranking)
    val total = new FAnova.Boxes(cs, rf.trees).totalVariance
    v.single.zip(imp.single).foreach { case (a, b) => assert(math.abs(a / total - b) < 1e-12) }
    assert(imp.single.sum <= 1.0 + 1e-9)
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
