package repro.bo

import repro.importance.FAnova
import repro.space.{Config, ConfigSpace}

/** Adaptive sub-space generation (§4.1).
  *
  * Maintains a parameter ranking (expert prior until enough history exists,
  * then fANOVA importances averaged over what has been observed) and a
  * TuRBO-style size controller: τ_succ consecutive improvements grow the
  * sub-space by 2 (up to K_max), τ_fail consecutive non-improvements
  * shrink it by 2 (down to K_min); counters reset on every resize.
  * `freeze` instead fixes the sub-space for good (Tuneful/LOCAT's prune
  * once after exploring, §6.3).
  */
final class Subspace(cs: ConfigSpace, expertRanking: Vector[String],
                     kInit: Int, kMin: Int, tauSucc: Int, tauFail: Int) {
  private val RefitEvery = 5
  private val MinHistoryForFanova = 8

  private val kMax: Int = cs.dim
  private val kStart: Int = kInit.min(kMax).max(kMin)
  private var k: Int = kStart
  private var succ = 0
  private var fail = 0
  // Running importance scores, seeded from the expert prior (§4.1). Each
  // fANOVA refit is *blended* into the running scores rather than replacing
  // them — the paper averages importance across histories, which keeps the
  // ranking stable against the noise of a single small tuning history.
  private var scores: Array[Double] = {
    val s = new Array[Double](cs.dim)
    val prior = expertRanking.filter(cs.contains).map(cs.indexOf) ++
      (0 until cs.dim).filterNot(i =>
        expertRanking.exists(n => cs.contains(n) && cs.indexOf(n) == i))
    prior.zipWithIndex.foreach { case (dim, rank) => s(dim) = math.exp(-rank / 5.0) }
    s
  }
  private var ranking: Vector[Int] =
    scores.zipWithIndex.sortBy(-_._1).map(_._2).toVector
  private var sinceRefit = 0
  private var frozen = false

  def size: Int = k

  /** Current free-dimension set Λ_sub = top-K ranked parameters (Eq. 5). */
  def freeDims: Set[Int] = ranking.take(k).toSet

  def currentRanking: Vector[Int] = ranking

  /** Record the outcome of an evaluated configuration: `improved` is
    * whether it beat the incumbent ("success"/"failure", §4.1). */
  def observe(improved: Boolean): Unit = if (!frozen) {
    if (improved) { succ += 1; fail = 0 } else { fail += 1; succ = 0 }
    if (succ >= tauSucc) { k = (k + 2).min(kMax); succ = 0; fail = 0 }
    else if (fail >= tauFail) { k = (k - 2).max(kMin); succ = 0; fail = 0 }
  }

  /** Every `RefitEvery` calls, refresh the ranking from a history of at least
    * `MinHistoryForFanova` runs via fANOVA ("once new tuning history arrives,
    * we continuously update the importance score"). */
  def maybeRefit(configs: Seq[Config], ys: Seq[Double], seed: Long = 0L): Unit = if (!frozen) {
    sinceRefit += 1
    if (configs.size >= MinHistoryForFanova && sinceRefit >= RefitEvery) {
      sinceRefit = 0
      val res = FAnova.marginalVariances(cs, configs, ys, seed)
      // Scale the fANOVA scores to the running-score scale (top = 1) and blend.
      val mx = res.single.max
      if (mx > 1e-12) {
        var i = 0
        while (i < cs.dim) {
          scores(i) = 0.7 * scores(i) + 0.3 * (res.single(i) / mx)
          i += 1
        }
        ranking = scores.zipWithIndex.sortBy(-_._1).map(_._2).toVector
      }
    }
  }

  /** Fix the sub-space to the top-`kInit` parameters of one fANOVA fit on
    * the history (the expert prior and earlier refits are dropped); later
    * `observe` and `maybeRefit` calls leave it as it is. */
  def freeze(configs: Seq[Config], ys: Seq[Double], seed: Long): Unit = {
    ranking = FAnova.marginalVariances(cs, configs, ys, seed).ranking
    k = kStart
    frozen = true
  }
}
