package repro.importance

import scala.util.Random
import repro.model.{RandomForest, RegressionTree}
import repro.space.ConfigSpace

/** Functional ANOVA parameter importance (§4.1, after Hutter et al. [35]).
  *
  * A random forest is fit on the tuning history (unit-encoded configs →
  * objective); importance of parameter i is the fraction of total predictive
  * variance explained by its marginal:
  *
  *   V_i = Var_v( E_x[ f(x | x_i = v) ] ),   imp_i = V_i / V_total.
  *
  * Marginals are estimated by Monte-Carlo marginalization (grid over the
  * parameter × MC background samples) rather than exact tree marginals;
  * at ≤30 dims and small histories this is accurate and linear-time.
  *
  * Evaluation is path-aware and takes one pass over the background: each
  * tree is walked once per background sample, recording its leaf and the
  * features tested on the path. Setting x_i = v cannot change the leaf of
  * a tree whose path does not test i, so only the trees that do are walked
  * again per grid value. Sums run in the forest's tree order and then the
  * sample order, so every marginal is the same double as predicting each
  * modified background point with the forest.
  */
object FAnova {

  final case class Result(single: Vector[Double]) {
    /** Parameter indices ranked by single importance, descending. */
    def ranking: Vector[Int] = single.zipWithIndex.sortBy(-_._1).map(_._2)
  }

  private def gridFor(cs: ConfigSpace, i: Int, nGrid: Int): Array[Double] =
    if (cs.isCat(i)) Array.tabulate(cs.cardinality(i))(c => (c + 0.5) / cs.cardinality(i))
    else Array.tabulate(nGrid)(g => (g + 0.5) / nGrid)

  /** Leaf value below `from` at `x` with feature `d` read as `v`. */
  private def leafWith(from: RegressionTree, x: Array[Double], d: Int, v: Double): Double = {
    var node = from
    while (!node.isLeaf) {
      val xf = if (node.feature == d) v else x(node.feature)
      node = if (xf <= node.threshold) node.left else node.right
    }
    node.value
  }

  /** Compute importances from history (configs, objective values).
    *
    * @param nMc    background Monte-Carlo samples
    * @param nGrid  grid resolution per numeric parameter
    */
  def importance(cs: ConfigSpace,
                 configs: Seq[repro.space.Config], ys: Seq[Double],
                 nMc: Int = 200, nGrid: Int = 8,
                 seed: Long = 0L): Result = {
    require(configs.size == ys.size && configs.nonEmpty, "empty history")
    val xs = configs.map(cs.toUnit).toArray
    val rf = RandomForest.fit(xs, ys.toArray, nTrees = 24, maxDepth = 8, seed = seed)
    val rng = new Random(seed)
    val bg = Array.fill(nMc)(Array.fill(cs.dim)(rng.nextDouble()))

    val trees = rf.trees.toArray
    val grids = Array.tabulate(cs.dim)(i => gridFor(cs, i, nGrid))
    // sums(i)(g): Σ_b f(bg_b | x_i = grid_i(g)); inner(i)(g): the same
    // point's sum over trees, divided by the tree count as rf.predict does.
    val sums = grids.map(g => new Array[Double](g.length))
    val inner = grids.map(g => new Array[Double](g.length))
    // firstTest(i): the first node on the current path that tests i (null
    // when none does); the path above it is the same for every x_i.
    val firstTest = new Array[RegressionTree](cs.dim)
    val pathFeats = new Array[Int](cs.dim)
    val preds = new Array[Double](nMc)

    var b = 0
    while (b < nMc) {
      val x = bg(b)
      inner.foreach(java.util.Arrays.fill(_, 0.0))
      var s = 0.0
      var t = 0
      while (t < trees.length) {
        var nPath = 0
        var node = trees(t)
        while (!node.isLeaf) {
          val f = node.feature
          if (firstTest(f) == null) { firstTest(f) = node; pathFeats(nPath) = f; nPath += 1 }
          node = if (x(f) <= node.threshold) node.left else node.right
        }
        val leaf = node.value
        s += leaf
        var i = 0
        while (i < cs.dim) {
          val acc = inner(i)
          val from = firstTest(i)
          var g = 0
          if (from != null) {
            val grid = grids(i)
            while (g < acc.length) { acc(g) += leafWith(from, x, i, grid(g)); g += 1 }
          } else {
            while (g < acc.length) { acc(g) += leaf; g += 1 }
          }
          i += 1
        }
        var p = 0
        while (p < nPath) { firstTest(pathFeats(p)) = null; p += 1 }
        t += 1
      }
      preds(b) = s / trees.length
      var i = 0
      while (i < cs.dim) {
        val acc = inner(i)
        val sum = sums(i)
        var g = 0
        while (g < acc.length) { sum(g) += acc(g) / trees.length; g += 1 }
        i += 1
      }
      b += 1
    }

    val mu = preds.sum / preds.length
    val totalVar = preds.map(p => (p - mu) * (p - mu)).sum / preds.length
    if (totalVar <= 1e-12)
      return Result(Vector.fill(cs.dim)(0.0))

    val single = Vector.tabulate(cs.dim) { i =>
      val ms = sums(i).map(_ / nMc)
      val m = ms.sum / ms.length
      ms.map(x => (x - m) * (x - m)).sum / ms.length
    }.map(_ / totalVar)
    Result(single)
  }

  /** Average single-importance scores across tasks (§4.1: "obtain the final
    * importance scores by averaging the scores from those tasks"); returns
    * per-parameter (mean, std). */
  def aggregate(results: Seq[Result]): Vector[(Double, Double)] = {
    require(results.nonEmpty, "no results")
    val dim = results.head.single.size
    Vector.tabulate(dim) { i =>
      val vs = results.map(_.single(i))
      val m = vs.sum / vs.size
      val sd = math.sqrt(vs.map(v => (v - m) * (v - m)).sum / vs.size)
      (m, sd)
    }
  }
}
