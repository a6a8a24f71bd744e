package repro.perfbench

import scala.collection.mutable

/** Span store of the traced pass: wall-clock samples per layer, kept in
  * memory and summarised when the pass ends. Spans are taken in the
  * harness around public calls into each module, never inside them. */
final class Trace {
  private val spans = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val counts = mutable.LinkedHashMap.empty[String, Long]

  /** Time `f` as one span of `layer` (seconds). */
  def span[A](layer: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    record(layer, (System.nanoTime() - t0) / 1e9)
    a
  }

  def record(layer: String, seconds: Double): Unit =
    spans.getOrElseUpdate(layer, mutable.ArrayBuffer.empty) += seconds

  def count(name: String, by: Long = 1): Unit =
    counts(name) = counts.getOrElse(name, 0L) + by

  def samples(layer: String): Seq[Double] = spans.getOrElse(layer, Nil).toSeq
  def calls(layer: String): Int = samples(layer).size
  def total(layer: String): Double = samples(layer).sum
  def countOf(name: String): Long = counts.getOrElse(name, 0L)

  /** Percentile of a layer's span durations, scaled to `unitSec`
    * (1e-3 for ms, 1e-6 for µs); 0 when the layer never ran. */
  def pct(layer: String, p: Double, unitSec: Double): Double = {
    val s = samples(layer)
    if (s.isEmpty) 0.0 else Stats.percentile(s, p).value / unitSec
  }
}

object Trace {
  def seconds[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }
}
