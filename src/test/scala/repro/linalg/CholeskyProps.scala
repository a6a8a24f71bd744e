package repro.linalg

import scala.util.{Failure, Random, Success, Try}
import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean

/** `GrowingCholesky` against `Lin.cholesky` of every leading block. The
  * matrices are B·Bᵀ with B of n×rank, rank < n mostly, scaled so that the
  * rounding in the singular blocks' pivots spans the jitter ladder: some
  * prefixes pass at the first jitter, some escalate once or several times,
  * and some exhaust it. */
object CholeskyProps extends Properties("GrowingCholesky") {
  private val gram: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(1, 20)
    rank <- Gen.choose(1, n)
    scale <- Gen.oneOf(1.0, 1e2, 1e4, 1e6)
    seed <- Gen.long
  } yield {
    val r = new Random(seed)
    val b = Array.fill(n, rank)(scale * r.nextGaussian())
    // Row i holds the lower triangle's A(i, 0..i).
    Array.tabulate(n)(i => Array.tabulate(i + 1)(j => Lin.dot(b(i), b(j))))
  }

  private def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)

  property("at every prefix, factor, jitter and logDet equal Lin.cholesky's to the bit") =
    Prop.forAllNoShrink(gram) { a =>
      val g = new GrowingCholesky
      var escalated = false
      /** The first prefix size at which `g` and Lin.cholesky differ, if any.
        * Stops at the first block Lin.cholesky cannot factor: every larger
        * block holds it, so none can be factored either. */
      def firstDiff(i: Int): Option[Int] =
        if (i == a.length) None
        else (Try(Lin.cholesky(a.take(i + 1))), Try(g.extend(a(i)))) match {
          case (Success((l, jitter)), Success(_)) =>
            escalated ||= jitter > Lin.Jitter
            val f = g.factor
            val same = g.size == i + 1 && f.length == i + 1 &&
              (0 to i).forall(p => (0 to p).forall(q => bits(f(p)(q)) == bits(l(p)(q)))) &&
              bits(g.jitter) == bits(jitter) && bits(g.logDet) == bits(Lin.logDet(l))
            if (same) firstDiff(i + 1) else Some(i + 1)
          case (Failure(_: ArithmeticException), Failure(_: ArithmeticException)) =>
            escalated = true
            if (g.size == i) None else Some(i + 1)
          case _ => Some(i + 1)
        }
      val diff = firstDiff(0)
      Prop.classify(escalated, "jitter escalated") {
        diff.isEmpty :| s"n=${a.length}: the prefix of ${diff.getOrElse(0)} rows differs"
      }
    }
}
