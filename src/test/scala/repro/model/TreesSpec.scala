package repro.model

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class TreesSpec extends AnyFunSuite {
  private val r = new Random(7)

  private def step(x: Array[Double]): Double = if (x(0) <= 0.5) 1.0 else 5.0

  test("tree fits a constant exactly") {
    val xs = Array.fill(20)(Array(r.nextDouble()))
    val t = RegressionTree.fit(xs, Array.fill(20)(3.0))
    assert(t.predict(Array(0.1)) == 3.0)
  }

  test("tree learns a step function") {
    val xs = Array.tabulate(100)(i => Array(i / 100.0))
    val ys = xs.map(step)
    val t = RegressionTree.fit(xs, ys, maxDepth = 3, minLeaf = 2)
    assert(math.abs(t.predict(Array(0.2)) - 1.0) < 1e-9)
    assert(math.abs(t.predict(Array(0.9)) - 5.0) < 1e-9)
  }

  test("tree respects maxDepth 0 (single leaf = mean)") {
    val xs = Array(Array(0.0), Array(1.0))
    val t = RegressionTree.fit(xs, Array(0.0, 10.0), maxDepth = 0)
    assert(t.isLeaf && t.predict(Array(0.0)) == 5.0)
  }

  test("tree splits on the informative feature among noise features") {
    val xs = Array.fill(200)(Array(r.nextDouble(), r.nextDouble(), r.nextDouble()))
    val ys = xs.map(x => if (x(1) <= 0.5) 0.0 else 1.0)
    val t = RegressionTree.fit(xs, ys, maxDepth = 2)
    assert(t.feature == 1)
    assert(math.abs(t.threshold - 0.5) < 0.1)
  }

  test("fit rejects empty training set") {
    assertThrows[IllegalArgumentException](
      RegressionTree.fit(Array.empty, Array.empty))
  }

  test("empty inputs fail the require, before any row is read") {
    // An xs(0) access would throw ArrayIndexOutOfBoundsException instead.
    assertThrows[IllegalArgumentException](
      RegressionTree.fit(Array.empty, Array.empty, maxFeatures = 1, idx = Array.empty[Int]))
    assertThrows[IllegalArgumentException](
      RegressionTree.fit(Array(Array(1.0)), Array(1.0), idx = Array.empty[Int]))
    assertThrows[IllegalArgumentException](RandomForest.fit(Array.empty, Array.empty))
    assertThrows[IllegalArgumentException](Gbdt.fit(Array.empty, Array.empty))
  }

  test("sortByKey orders rows exactly as a stable sortBy on the keys") {
    val levels = Array(-1.0, -0.0, 0.0, 0.25, 1.0, Double.NaN, Double.PositiveInfinity)
    for (seed <- 0 until 40; n <- Seq(0, 1, 2, 7, 31, 32, 33, 64, 65, 100, 257)) {
      val rnd = new Random(seed * 1000 + n)
      val keys = Array.fill(n)(if (rnd.nextBoolean()) levels(rnd.nextInt(levels.length))
                               else rnd.nextInt(5) / 4.0)
      val rows = Array.fill(n)(rnd.nextInt(1000))
      val order = rows.indices.sortBy(i => keys(i))
      val k = keys.clone(); val rs = rows.clone()
      RegressionTree.sortByKey(k, rs, new Array[Double](n), new Array[Int](n), 0, n)
      assert(rs.sameElements(order.map(rows)), s"seed $seed n $n")
      assert(k.map(java.lang.Double.doubleToRawLongBits)
        .sameElements(order.map(i => java.lang.Double.doubleToRawLongBits(keys(i)))))
    }
  }

  test("shuffledPrefix draws Random.shuffle's features with the same random stream") {
    for (seed <- 0 until 30; n <- Seq(1, 2, 3, 9, 30, 150); take <- Seq(1, n / 3 + 1, n)) {
      val a = new Random(seed); val b = new Random(seed)
      val got = RegressionTree.shuffledPrefix(n, take, a)
      val want = b.shuffle((0 until n).toVector).take(take).toArray
      assert(got.sameElements(want), s"seed $seed n $n take $take")
      assert(a.nextLong() == b.nextLong())
    }
  }

  /** Inputs with tied keys, categorical-index columns, ±0.0 and a constant
    * column. */
  private def data(seed: Int, n: Int, nFeat: Int): (Array[Array[Double]], Array[Double]) = {
    val rnd = new Random(seed)
    val xs = Array.fill(n) {
      Array.tabulate(nFeat) { j =>
        j % 5 match {
          case 0 => rnd.nextDouble()
          case 1 => rnd.nextInt(4) / 3.0                         // tied unit values
          case 2 => rnd.nextInt(3).toDouble                      // categorical index
          case 3 => Array(-0.0, 0.0, -0.5, 0.5)(rnd.nextInt(4))  // signed zeros
          case _ => if (j == 4) 0.25 else (rnd.nextInt(8) / 7.0) * rnd.nextInt(2)
        }
      }
    }
    val ys = xs.map(x => math.round(10 * (math.sin(3 * x(0)) + x(1) +
      0.3 * x(2) + 0.1 * rnd.nextGaussian())) / 10.0)
    (xs, ys)
  }

  private def sameTree(t: RegressionTree, r: RefTree.Node): Boolean = {
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    t.feature == r.feature && bits(t.threshold) == bits(r.threshold) &&
      bits(t.value) == bits(r.value) && t.isLeaf == (r.left == null) &&
      (t.isLeaf || (sameTree(t.left, r.left) && sameTree(t.right, r.right)))
  }

  private val sizes = Seq(5, 12, 31, 32, 33, 56, 80, 130)

  test("random forest equals the reference learner node for node, to the bit") {
    for (seed <- 0 until 6; n <- sizes; nFeat <- Seq(9, 30)) {
      val (xs, ys) = data(seed * 7 + n, n, nFeat)
      val got = RandomForest.fit(xs, ys, nTrees = 24, maxDepth = 8, seed = seed)
      val want = RefTree.forest(xs, ys, nTrees = 24, maxDepth = 8, minLeaf = 2, seed = seed)
      assert(got.trees.size == want.size)
      got.trees.zip(want).zipWithIndex.foreach { case ((t, r), i) =>
        assert(sameTree(t, r), s"seed $seed n $n nFeat $nFeat tree $i")
      }
    }
  }

  test("gbdt equals the reference learner node for node, to the bit") {
    // DAC's model (40 trees, depth 3) and TaskSimilarity.train's (60 trees on
    // 56 rows of pair features).
    val cases = for (seed <- 0 until 6; n <- sizes) yield (seed, n, 10, 40)
    val pairs = for (seed <- 0 until 6) yield (seed, 56, 40, 60)
    (cases ++ pairs).foreach { case (seed, n, nFeat, nTrees) =>
      val (xs, ys) = data(seed * 13 + n, n, nFeat)
      val got = Gbdt.fit(xs, ys, nTrees = nTrees, maxDepth = 3, lr = 0.1, seed = seed)
      val (base, want) = RefTree.gbdt(xs, ys, nTrees, maxDepth = 3, lr = 0.1, minLeaf = 3, seed = seed)
      assert(java.lang.Double.doubleToRawLongBits(got.base) ==
        java.lang.Double.doubleToRawLongBits(base))
      assert(got.trees.size == want.size)
      got.trees.zip(want).zipWithIndex.foreach { case ((t, r), i) =>
        assert(sameTree(t, r), s"seed $seed n $n nTrees $nTrees tree $i")
      }
    }
  }

  test("random forest beats the global mean on a nonlinear target") {
    val xs = Array.fill(300)(Array(r.nextDouble(), r.nextDouble()))
    val ys = xs.map(x => math.sin(5 * x(0)) + x(1) * x(1))
    val rf = RandomForest.fit(xs, ys, nTrees = 24, seed = 1)
    val mean = ys.sum / ys.length
    val mseRf = xs.zip(ys).map { case (x, y) => math.pow(rf.predict(x) - y, 2) }.sum
    val mseMean = ys.map(y => math.pow(y - mean, 2)).sum
    assert(mseRf < mseMean * 0.5)
  }

  test("random forest is deterministic in its seed") {
    val xs = Array.fill(50)(Array(r.nextDouble()))
    val ys = xs.map(_(0))
    val a = RandomForest.fit(xs, ys, nTrees = 8, seed = 3)
    val b = RandomForest.fit(xs, ys, nTrees = 8, seed = 3)
    assert(a.predict(Array(0.37)) == b.predict(Array(0.37)))
  }

  test("gbdt fits a nonlinear function closely") {
    val xs = Array.tabulate(200)(i => Array(i / 200.0))
    val ys = xs.map(x => math.sin(6 * x(0)))
    val g = Gbdt.fit(xs, ys, nTrees = 100, maxDepth = 3, lr = 0.2)
    val mse = xs.zip(ys).map { case (x, y) => math.pow(g.predict(x) - y, 2) }.sum / xs.length
    assert(mse < 0.01)
  }

  test("gbdt with zero trees predicts the base mean") {
    val xs = Array(Array(0.0), Array(1.0))
    val g = Gbdt.fit(xs, Array(2.0, 4.0), nTrees = 0)
    assert(g.predict(Array(0.5)) == 3.0)
  }

  test("gbdt shrinkage: more trees reduce training error") {
    val xs = Array.tabulate(100)(i => Array(i / 100.0))
    val ys = xs.map(x => x(0) * x(0))
    def mse(n: Int) = {
      val g = Gbdt.fit(xs, ys, nTrees = n, maxDepth = 2, lr = 0.1)
      xs.zip(ys).map { case (x, y) => math.pow(g.predict(x) - y, 2) }.sum
    }
    assert(mse(50) < mse(5))
  }
}

/** The learner as it was before `grow` sorted and shuffled on primitive
  * arrays: boxed `sortBy` per feature and `Random.shuffle` for the feature
  * subset. Kept as the reference the exactness tests compare against. */
private object RefTree {
  final case class Node(feature: Int, threshold: Double, left: Node, right: Node, value: Double) {
    def predict(x: Array[Double]): Double = {
      var node = this
      while (node.left != null) node = if (x(node.feature) <= node.threshold) node.left else node.right
      node.value
    }
  }

  private def leaf(v: Double) = Node(-1, 0.0, null, null, v)

  private def mean(ys: Array[Double], rows: Array[Int]): Double = {
    var s = 0.0; var i = 0
    while (i < rows.length) { s += ys(rows(i)); i += 1 }
    s / rows.length
  }

  def grow(xs: Array[Array[Double]], ys: Array[Double], rows: Array[Int],
           depth: Int, minLeaf: Int, maxFeatures: Int, rng: Random): Node = {
    if (depth == 0 || rows.length < 2 * minLeaf) return leaf(mean(ys, rows))

    val nFeat = xs(0).length
    val feats: Array[Int] =
      if (maxFeatures <= 0 || maxFeatures >= nFeat) Array.range(0, nFeat)
      else rng.shuffle((0 until nFeat).toVector).take(maxFeatures).toArray

    var bestFeat = -1
    var bestThr = 0.0
    var bestScore = Double.NegativeInfinity

    val mu = mean(ys, rows)
    var parentSse = 0.0
    rows.foreach { r => val d = ys(r) - mu; parentSse += d * d }
    if (parentSse <= 1e-12) return leaf(mu)

    feats.foreach { f =>
      val sorted = rows.sortBy(r => xs(r)(f))
      var lSum = 0.0; var lSq = 0.0; var lCnt = 0
      var rSum = 0.0; var rSq = 0.0
      sorted.foreach { r => rSum += ys(r); rSq += ys(r) * ys(r) }
      var i = 0
      while (i < sorted.length - 1) {
        val r = sorted(i)
        lSum += ys(r); lSq += ys(r) * ys(r); lCnt += 1
        rSum -= ys(r); rSq -= ys(r) * ys(r)
        val xi = xs(r)(f); val xn = xs(sorted(i + 1))(f)
        if (xi != xn && lCnt >= minLeaf && (sorted.length - lCnt) >= minLeaf) {
          val rCnt = sorted.length - lCnt
          val sse = (lSq - lSum * lSum / lCnt) + (rSq - rSum * rSum / rCnt)
          val score = parentSse - sse
          if (score > bestScore) { bestScore = score; bestFeat = f; bestThr = (xi + xn) / 2.0 }
        }
        i += 1
      }
    }

    if (bestFeat < 0 || bestScore <= 1e-12) return leaf(mu)
    val (lRows, rRows) = rows.partition(r => xs(r)(bestFeat) <= bestThr)
    Node(bestFeat, bestThr,
      grow(xs, ys, lRows, depth - 1, minLeaf, maxFeatures, rng),
      grow(xs, ys, rRows, depth - 1, minLeaf, maxFeatures, rng),
      mu)
  }

  def forest(xs: Array[Array[Double]], ys: Array[Double],
             nTrees: Int, maxDepth: Int, minLeaf: Int, seed: Long): Vector[Node] = {
    val rng = new Random(seed)
    val mtry = math.max(1, (xs(0).length / 3.0).round.toInt)
    Vector.fill(nTrees) {
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      grow(xs, ys, boot, maxDepth, minLeaf, mtry, rng)
    }
  }

  def gbdt(xs: Array[Array[Double]], ys: Array[Double], nTrees: Int, maxDepth: Int,
           lr: Double, minLeaf: Int, seed: Long): (Double, Vector[Node]) = {
    val rng = new Random(seed)
    val base = ys.sum / ys.length
    val resid = ys.map(_ - base)
    val trees = Vector.newBuilder[Node]
    var t = 0
    while (t < nTrees) {
      val tree = grow(xs, resid.clone(), Array.range(0, xs.length), maxDepth, minLeaf, -1, rng)
      var i = 0
      while (i < resid.length) { resid(i) -= lr * tree.predict(xs(i)); i += 1 }
      trees += tree
      t += 1
    }
    (base, trees.result())
  }
}
