package repro.model

import scala.util.Random
import repro.util.UnsyncRandom

/** CART regression tree with variance-reduction splits.
  *
  * Used as the base learner for [[RandomForest]] (fANOVA surrogate, RFHOC,
  * DAC) and [[Gbdt]] (the LightGBM stand-in for similarity learning).
  * Categorical inputs are handled upstream as ordinal indices — adequate
  * for low-cardinality Spark parameters.
  *
  * Growing a node works on primitive arrays only:
  *  - each candidate feature's rows are ordered by a stable sort on a
  *    parallel `Array[Double]` of keys (insertion sort up to 32 rows,
  *    merge sort above), compared with `java.lang.Double.compare`. That is
  *    the total order of the standard `Ordering[Double]` (-0.0 before 0.0,
  *    NaN last), and a stable sort's output is unique, so the rows — and
  *    the order in which the split scan sums their targets — are exactly
  *    those of `rows.sortBy(r => xs(r)(f))`;
  *  - a forest's feature subset is drawn by Fisher–Yates on an
  *    `Array[Int]`, with the same `nextInt` calls and swaps as
  *    `Random.shuffle`, so the random stream and the chosen features are
  *    those of `rng.shuffle(0 until nFeat).take(maxFeatures)`.
  */
final class RegressionTree private (
    val feature: Int, val threshold: Double,
    val left: RegressionTree, val right: RegressionTree,
    val value: Double) extends Serializable {

  def isLeaf: Boolean = left == null

  def predict(x: Array[Double]): Double = {
    var node = this
    while (!node.isLeaf) node = if (x(node.feature) <= node.threshold) node.left else node.right
    node.value
  }
}

object RegressionTree {

  private def leaf(v: Double) = new RegressionTree(-1, 0.0, null, null, v)

  /** Fit a tree on rows `idx` of (xs, ys).
    *
    * @param maxFeatures number of candidate features per split (for forests);
    *                    <=0 means all features.
    */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          maxDepth: Int = 8, minLeaf: Int = 3, maxFeatures: Int = -1,
          rng: Random = new Random(0),
          idx: Array[Int] = null): RegressionTree = {
    val rows = if (idx == null) Array.range(0, xs.length) else idx
    require(rows.nonEmpty, "empty training set")
    grow(xs, ys, rows, maxDepth, minLeaf, maxFeatures, rng)
  }

  private def mean(ys: Array[Double], rows: Array[Int]): Double = {
    var s = 0.0; var i = 0
    while (i < rows.length) { s += ys(rows(i)); i += 1 }
    s / rows.length
  }

  /** Runs of at most this many rows are sorted by insertion. */
  private final val InsertionMax = 32

  /** The first `take` entries of `Random.shuffle(0 until n)`, drawn with the
    * same calls on `rng`: for m = n down to 2, swap positions m-1 and
    * rng.nextInt(m). */
  private[model] def shuffledPrefix(n: Int, take: Int, rng: Random): Array[Int] = {
    val perm = Array.range(0, n)
    var m = n
    while (m >= 2) {
      val k = rng.nextInt(m)
      val t = perm(m - 1); perm(m - 1) = perm(k); perm(k) = t
      m -= 1
    }
    java.util.Arrays.copyOf(perm, take)
  }

  /** Stable sort of `keys(lo until hi)` by `java.lang.Double.compare`,
    * permuting `rows` alongside. `bufKeys`/`bufRows` are merge scratch space
    * of the same length. */
  private[model] def sortByKey(keys: Array[Double], rows: Array[Int],
                               bufKeys: Array[Double], bufRows: Array[Int], lo: Int, hi: Int): Unit =
    if (hi - lo <= InsertionMax) {
      var i = lo + 1
      while (i < hi) {
        val k = keys(i); val r = rows(i)
        var j = i - 1
        while (j >= lo && java.lang.Double.compare(keys(j), k) > 0) {
          keys(j + 1) = keys(j); rows(j + 1) = rows(j); j -= 1
        }
        keys(j + 1) = k; rows(j + 1) = r
        i += 1
      }
    } else {
      val mid = (lo + hi) >>> 1
      sortByKey(keys, rows, bufKeys, bufRows, lo, mid)
      sortByKey(keys, rows, bufKeys, bufRows, mid, hi)
      if (java.lang.Double.compare(keys(mid - 1), keys(mid)) > 0) {
        System.arraycopy(keys, lo, bufKeys, lo, hi - lo)
        System.arraycopy(rows, lo, bufRows, lo, hi - lo)
        var a = lo; var b = mid; var k = lo
        while (k < hi) {
          // Ties take the left run first: that is what keeps the sort stable.
          if (b >= hi || (a < mid && java.lang.Double.compare(bufKeys(a), bufKeys(b)) <= 0)) {
            keys(k) = bufKeys(a); rows(k) = bufRows(a); a += 1
          } else {
            keys(k) = bufKeys(b); rows(k) = bufRows(b); b += 1
          }
          k += 1
        }
      }
    }

  private def grow(xs: Array[Array[Double]], ys: Array[Double], rows: Array[Int],
                   depth: Int, minLeaf: Int, maxFeatures: Int, rng: Random): RegressionTree = {
    if (depth == 0 || rows.length < 2 * minLeaf) return leaf(mean(ys, rows))

    val nFeat = xs(0).length
    val feats: Array[Int] =
      if (maxFeatures <= 0 || maxFeatures >= nFeat) Array.range(0, nFeat)
      else shuffledPrefix(nFeat, maxFeatures, rng)

    var bestFeat = -1
    var bestThr = 0.0
    var bestScore = Double.NegativeInfinity

    // Parent SSE baseline.
    val mu = mean(ys, rows)
    var parentSse = 0.0
    var j = 0
    while (j < rows.length) { val d = ys(rows(j)) - mu; parentSse += d * d; j += 1 }
    if (parentSse <= 1e-12) return leaf(mu)

    // While loops, not closures: a closure would box the vars it updates
    // (bestScore, rSum, ...) into heap cells.
    val n = rows.length
    val sorted = new Array[Int](n)
    val keys = new Array[Double](n)
    val bufRows = new Array[Int](n)
    val bufKeys = new Array[Double](n)
    var fi = 0
    while (fi < feats.length) {
      val f = feats(fi)
      j = 0
      while (j < n) { val r = rows(j); sorted(j) = r; keys(j) = xs(r)(f); j += 1 }
      sortByKey(keys, sorted, bufKeys, bufRows, 0, n)
      // Prefix sums for O(n) split scan.
      var lSum = 0.0; var lSq = 0.0; var lCnt = 0
      var rSum = 0.0; var rSq = 0.0
      j = 0
      while (j < n) { val r = sorted(j); rSum += ys(r); rSq += ys(r) * ys(r); j += 1 }
      var i = 0
      while (i < sorted.length - 1) {
        val r = sorted(i)
        lSum += ys(r); lSq += ys(r) * ys(r); lCnt += 1
        rSum -= ys(r); rSq -= ys(r) * ys(r)
        val xi = keys(i); val xn = keys(i + 1)
        if (xi != xn && lCnt >= minLeaf && (sorted.length - lCnt) >= minLeaf) {
          val rCnt = sorted.length - lCnt
          val sse = (lSq - lSum * lSum / lCnt) + (rSq - rSum * rSum / rCnt)
          val score = parentSse - sse
          if (score > bestScore) { bestScore = score; bestFeat = f; bestThr = (xi + xn) / 2.0 }
        }
        i += 1
      }
      fi += 1
    }

    if (bestFeat < 0 || bestScore <= 1e-12) return leaf(mu)
    val feat = bestFeat; val thr = bestThr
    val (lRows, rRows) = rows.partition(r => xs(r)(feat) <= thr)
    new RegressionTree(feat, thr,
      grow(xs, ys, lRows, depth - 1, minLeaf, maxFeatures, rng),
      grow(xs, ys, rRows, depth - 1, minLeaf, maxFeatures, rng),
      mu)
  }
}

/** Bagged random forest of regression trees. */
final class RandomForest(val trees: Vector[RegressionTree]) extends Serializable {
  def predict(x: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < trees.size) { s += trees(i).predict(x); i += 1 }
    s / trees.size
  }
}

object RandomForest {
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          nTrees: Int = 32, maxDepth: Int = 8, minLeaf: Int = 2,
          seed: Long = 0L): RandomForest = {
    require(xs.nonEmpty, "empty training set")
    val rng = new Random(new UnsyncRandom(seed)) // java.util.Random's stream, without the lock
    val nFeat = xs(0).length
    val mtry = math.max(1, (nFeat / 3.0).round.toInt)
    val trees = Vector.fill(nTrees) {
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      RegressionTree.fit(xs, ys, maxDepth, minLeaf, mtry, rng, boot)
    }
    new RandomForest(trees)
  }
}

/** Gradient-boosted regression trees with squared loss and shrinkage —
  * the stand-in for the paper's LightGBM similarity regressor (§5.1).
  */
final class Gbdt(val base: Double, val trees: Vector[RegressionTree], val lr: Double) extends Serializable {
  def predict(x: Array[Double]): Double = {
    var p = base; var i = 0
    while (i < trees.size) { p += lr * trees(i).predict(x); i += 1 }
    p
  }
}

object Gbdt {
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          nTrees: Int = 80, maxDepth: Int = 4, lr: Double = 0.1,
          minLeaf: Int = 3, seed: Long = 0L): Gbdt = {
    require(xs.nonEmpty, "empty training set")
    val rng = new Random(seed)
    val base = ys.sum / ys.length
    val resid = ys.map(_ - base)
    val trees = Vector.newBuilder[RegressionTree]
    var t = 0
    while (t < nTrees) {
      val tree = RegressionTree.fit(xs, resid.clone(), maxDepth, minLeaf, -1, rng)
      var i = 0
      while (i < resid.length) { resid(i) -= lr * tree.predict(xs(i)); i += 1 }
      trees += tree
      t += 1
    }
    new Gbdt(base, trees.result(), lr)
  }
}
