package repro.importance

import repro.model.{RandomForest, RegressionTree}
import repro.space.{Config, ConfigSpace}

/** Functional ANOVA parameter importance (§4.1, after Hutter et al. [35]).
  *
  * A random forest f is fit on the tuning history (unit-encoded configs →
  * objective). Under the input measure — length inside [0,1] for numeric
  * dims, the share of category indices for categorical dims — importance of
  * parameter i is the fraction of the forest's variance explained by its
  * marginal:
  *
  *   V_i = Var_v( E_x[ f(x | x_i = v) ] ),   imp_i = V_i / V_total.
  *
  * Both are exact sums over the trees' leaf boxes (lo, hi]. The forest
  * marginal of dim i is constant between consecutive split points of the
  * whole forest on i (on each category, for a categorical dim): on such a
  * cell it is the average over trees of Σ value · (measure of the box in
  * the other dims) over the leaves whose box holds the cell. Leaves whose
  * path does not test i add the same amount to every cell, so they leave
  * V_i unchanged and are skipped. V_total needs every pair of overlapping
  * leaves of two trees, which the sub-space never needs: it reads only
  * the ranking and V_i / max V_i, so it calls [[marginalVariances]].
  */
object FAnova {

  final case class Result(single: Vector[Double]) {
    /** Parameter indices ranked by single importance, descending. */
    def ranking: Vector[Int] = single.zipWithIndex.sortBy(-_._1).map(_._2)
  }

  /** Importances imp_i = V_i / V_total of the forest fit on the history
    * (configs, objective values); all zero when the forest is constant. */
  def importance(cs: ConfigSpace, configs: Seq[Config], ys: Seq[Double],
                 seed: Long = 0L): Result =
    importance(cs, forest(cs, configs, ys, seed))

  /** The marginal variances V_i of [[importance]], not divided by V_total:
    * the same ranking, at a fraction of the cost. */
  def marginalVariances(cs: ConfigSpace, configs: Seq[Config], ys: Seq[Double],
                        seed: Long = 0L): Result =
    Result(new Boxes(cs, forest(cs, configs, ys, seed).trees).marginalVariances)

  private[importance] def forest(cs: ConfigSpace, configs: Seq[Config], ys: Seq[Double],
                                 seed: Long): RandomForest = {
    require(configs.size == ys.size && configs.nonEmpty, "empty history")
    RandomForest.fit(configs.map(cs.toUnit).toArray, ys.toArray, nTrees = 24, maxDepth = 8, seed = seed)
  }

  private[importance] def importance(cs: ConfigSpace, rf: RandomForest): Result = {
    val boxes = new Boxes(cs, rf.trees)
    val total = boxes.totalVariance
    if (total <= 1e-12) Result(Vector.fill(cs.dim)(0.0))
    else Result(boxes.marginalVariances.map(_ / total))
  }

  /** The leaf boxes of a forest's trees under the input measure. */
  private[importance] final class Boxes(cs: ConfigSpace, trees: Vector[RegressionTree]) {
    private val dim = cs.dim
    private val lo = Array.fill(dim)(Double.NegativeInfinity)
    private val hi = Array.fill(dim)(Double.PositiveInfinity)

    /** μ_d((l, h]): length inside [0,1] for a numeric dim, share of the
      * category indices 0..card-1 for a categorical dim. */
    private def measure(d: Int, l: Double, h: Double): Double =
      if (cs.isCat(d)) {
        val card = cs.cardinality(d).toDouble
        def atMost(x: Double) = math.min(card, math.max(0.0, math.floor(x) + 1.0))
        (atMost(h) - atMost(l)) / card
      } else math.max(0.0, math.min(h, 1.0) - math.max(l, 0.0))

    /** Calls `at(value, mass)` on every leaf below `n` whose box, cut down
      * from the current (lo, hi] box of measure `mass`, has positive
      * measure; lo/hi hold that leaf's box during the call. */
    private def leaves(n: RegressionTree, mass: Double)(at: (Double, Double) => Unit): Unit =
      if (n.isLeaf) at(n.value, mass)
      else {
        val f = n.feature
        val l0 = lo(f); val h0 = hi(f)
        val mu0 = measure(f, l0, h0)
        if (l0 < n.threshold) {
          hi(f) = math.min(h0, n.threshold)
          val m = measure(f, l0, hi(f))
          if (m > 0.0) leaves(n.left, mass / mu0 * m)(at)
          hi(f) = h0
        }
        if (h0 > n.threshold) {
          lo(f) = math.max(l0, n.threshold)
          val m = measure(f, lo(f), h0)
          if (m > 0.0) leaves(n.right, mass / mu0 * m)(at)
          lo(f) = l0
        }
      }

    /** Number of the ascending `xs` that are ≤ `x`. */
    private def countAtMost(xs: Array[Double], x: Double): Int = {
      var a = 0; var b = xs.length
      while (a < b) { val m = (a + b) >>> 1; if (xs(m) <= x) a = m + 1 else b = m }
      a
    }

    /** V_i for every dim i. */
    def marginalVariances: Vector[Double] = {
      val splits = Array.fill(dim)(Array.newBuilder[Double])
      def collect(n: RegressionTree): Unit = if (!n.isLeaf) {
        splits(n.feature) += n.threshold; collect(n.left); collect(n.right)
      }
      trees.foreach(collect)
      // The cells of each dim: a point inside each (reps) and its measure.
      val (reps, weights) = Array.tabulate(dim) { d =>
        if (cs.isCat(d)) {
          val card = cs.cardinality(d)
          (Array.tabulate(card)(_.toDouble), Array.fill(card)(1.0 / card))
        } else {
          val b = (0.0 +: splits(d).result().filter(t => t > 0.0 && t < 1.0).distinct.sorted) :+ 1.0
          val cells = b.init.zip(b.tail)
          (cells.map { case (l, h) => 0.5 * (l + h) }, cells.map { case (l, h) => h - l })
        }
      }.unzip
      // delta(i): the marginal of i as differences between consecutive
      // cells. A leaf adds value · (its box's measure in the other dims)
      // to the cells its box holds, along each dim its path tests.
      val delta = reps.map(r => new Array[Double](r.length + 1))
      trees.foreach(t => leaves(t, 1.0) { (v, mass) =>
        var i = 0
        while (i < dim) {
          if (lo(i) > Double.NegativeInfinity || hi(i) < Double.PositiveInfinity) {
            val c = v * mass / measure(i, lo(i), hi(i)) / trees.size
            delta(i)(countAtMost(reps(i), lo(i))) += c
            delta(i)(countAtMost(reps(i), hi(i))) -= c
          }
          i += 1
        }
      })
      Vector.tabulate(dim) { i =>
        val a = delta(i).init.scanLeft(0.0)(_ + _).tail
        val w = weights(i)
        val mean = a.indices.map(k => w(k) * a(k)).sum
        a.indices.map(k => w(k) * (a(k) - mean) * (a(k) - mean)).sum
      }
    }

    /** V_total = (1/T²) Σ_{t,t'} E[(f_t − m)(f_t' − m)] with m = E f: for
      * each leaf l of t, (v_l − m) times the integral of f_t' − m over l's
      * box. */
    def totalVariance: Double = {
      var sum = 0.0
      trees.foreach(t => leaves(t, 1.0)((v, mass) => sum += v * mass))
      val mean = sum / trees.size
      var acc = 0.0
      trees.foreach(t => leaves(t, 1.0) { (v, mass) =>
        var overlap = 0.0
        trees.foreach(u => leaves(u, mass)((w, m) => overlap += (w - mean) * m))
        acc += (v - mean) * overlap
      })
      acc / (trees.size.toDouble * trees.size)
    }
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
