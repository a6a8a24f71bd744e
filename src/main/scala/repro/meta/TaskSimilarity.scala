package repro.meta

import scala.util.Random
import repro.model.Gbdt
import repro.space.ConfigSpace
import repro.surrogate.{Block, Surrogate}

/** Task-similarity learning (§5.1).
  *
  * Ground-truth distance between two tasks is the scaled negative
  * Kendall-tau of their surrogates' rankings over random configurations:
  *
  *   Dist(Mⁱ, Mʲ) = (1 − τ_Drand(Mⁱ, Mʲ)) / 2   ∈ [0, 1]
  *
  * A gradient-boosted regressor (LightGBM in the paper, [[Gbdt]] here) is
  * trained to predict that distance from the pair of task meta-features,
  * so similarity can be estimated for a *new* task before any tuning run.
  */
object TaskSimilarity {

  /** Kendall-tau rank correlation of two prediction vectors (τ_a; ties
    * counted as discordant-neutral). */
  def kendallTau(a: Seq[Double], b: Seq[Double]): Double = {
    require(a.size == b.size && a.size >= 2, "need >=2 paired predictions")
    var conc = 0
    var disc = 0
    var i = 0
    while (i < a.size) {
      var j = i + 1
      while (j < a.size) {
        val s = math.signum(a(i) - a(j)) * math.signum(b(i) - b(j))
        if (s > 0) conc += 1 else if (s < 0) disc += 1
        j += 1
      }
      i += 1
    }
    val n = a.size * (a.size - 1) / 2
    (conc - disc).toDouble / n
  }

  /** Distance of two surrogates via ranking disagreement on `nSample`
    * random configs (§5.1). */
  def surrogateDistance(cs: ConfigSpace, mi: Surrogate, mj: Surrogate,
                        nSample: Int, seed: Long = 0L): Double = {
    val rng = new Random(seed)
    val xs = Block.of(Array.fill(nSample)(Array.fill(cs.dim)(rng.nextDouble())))
    val pi = mi.predictBlock(xs).map(_.mean).toSeq
    val pj = mj.predictBlock(xs).map(_.mean).toSeq
    (1.0 - kendallTau(pi, pj)) / 2.0
  }

  /** Symmetric pair encoding of two meta-feature vectors for the distance
    * regressor: |v₁−v₂| ⊕ (v₁+v₂)/2 — invariant to argument order, which
    * the distance itself is. */
  def pairFeatures(v1: Array[Double], v2: Array[Double]): Array[Double] = {
    require(v1.length == v2.length, "meta-feature dim mismatch")
    val out = new Array[Double](v1.length * 2)
    var i = 0
    while (i < v1.length) {
      out(i) = math.abs(v1(i) - v2(i))
      out(v1.length + i) = (v1(i) + v2(i)) / 2.0
      i += 1
    }
    out
  }

  /** Learned distance model M_reg : (v₁, v₂) ↦ d ∈ [0,1]. */
  final class DistanceModel(model: Gbdt) extends Serializable {
    def distance(v1: Array[Double], v2: Array[Double]): Double =
      model.predict(pairFeatures(v1, v2)).max(0.0).min(1.0)
  }

  /** Train M_reg from (meta-features, surrogate) pairs of previous tasks:
    * every ordered task pair (i, j), i ≠ j, contributes one training row,
    * labeled by the Kendall-tau surrogate distance. So each unordered pair
    * gives two rows with the same (symmetric) `pairFeatures` and two labels
    * drawn from different sample seeds. */
  def train(cs: ConfigSpace, tasks: Seq[(Array[Double], Surrogate)],
            nSample: Int, seed: Long = 0L): DistanceModel = {
    require(tasks.size >= 2, "need >=2 source tasks")
    val rows = for {
      i <- tasks.indices; j <- tasks.indices if i != j
    } yield {
      val d = surrogateDistance(cs, tasks(i)._2, tasks(j)._2, nSample, seed + i * 31 + j)
      (pairFeatures(tasks(i)._1, tasks(j)._1), d)
    }
    val xs = rows.map(_._1).toArray
    val ys = rows.map(_._2).toArray
    new DistanceModel(Gbdt.fit(xs, ys, nTrees = 60, maxDepth = 3, lr = 0.1, seed = seed))
  }
}
