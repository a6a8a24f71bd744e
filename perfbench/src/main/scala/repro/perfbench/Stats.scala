package repro.perfbench

/** The harness's pure math: order statistics, reductions and the Spark
  * slot figures. Kept free of I/O so the unit tests can pin it down. */
object Stats {

  /** A percentile together with the number of samples it was taken over. */
  final case class Pct(value: Double, n: Int)

  /** Percentile `p` ∈ [0, 100] by linear interpolation between closest
    * ranks (numpy's default). An empty sample gives NaN with n = 0. */
  def percentile(xs: Seq[Double], p: Double): Pct = {
    require(p >= 0.0 && p <= 100.0, s"percentile out of [0,100]: $p")
    if (xs.isEmpty) Pct(Double.NaN, 0)
    else {
      val s = xs.sorted.toArray
      val pos = p / 100.0 * (s.length - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.length - 1)
      Pct(s(lo) + (pos - lo) * (s(hi) - s(lo)), s.length)
    }
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50).value

  def mean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** Reduction of `after` against `before` in percent; positive = lower. */
  def reductionPct(before: Double, after: Double): Double = {
    require(before != 0.0, "reduction against a zero baseline")
    100.0 * (before - after) / before
  }

  /** Share of the available slot time that tasks kept busy:
    * Σ task run time / (slots × wall time). */
  def slotUtil(busySec: Double, slots: Int, wallSec: Double): Double = {
    require(slots > 0 && wallSec > 0, "slot utilisation needs slots and wall time")
    busySec / (slots * wallSec)
  }

  /** Longest task over the mean task of a stage; 1.0 is a perfectly even
    * stage, and the stage ends with its longest task. */
  def stragglerRatio(durations: Seq[Double]): Double = {
    require(durations.nonEmpty, "straggler ratio of an empty stage")
    val m = mean(durations)
    if (m <= 0) 1.0 else durations.max / m
  }
}
