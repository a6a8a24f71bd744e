package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.util.UnsyncRandom

/** `UnsyncRandom` against `java.util.Random` from the same seed, over a
  * random mix of calls, both bare and wrapped in `scala.util.Random`. The
  * first call after construction is compared too, so a seed lost in the
  * constructor fails here. */
object UnsyncRandomProps extends Properties("UnsyncRandom") {
  private sealed trait Call
  private case object NextDouble extends Call
  private case object NextGaussian extends Call
  private final case class NextInt(bound: Int) extends Call
  private case object NextLong extends Call
  private case object NextBoolean extends Call
  private final case class SetSeed(seed: Long) extends Call

  // Powers of two take nextInt's multiply path, other bounds its rejection
  // loop (bounds just above 2^30 reject about half of all draws).
  private val bound: Gen[Int] = Gen.oneOf(
    Gen.choose(0, 30).map(1 << _),
    Gen.choose(1, 1000),
    Gen.choose((1 << 30) + 1, Int.MaxValue))

  // Gaussians come in pairs, the second cached; interleaving them with
  // other calls checks the cache survives those calls and setSeed clears it.
  private val call: Gen[Call] = Gen.frequency(
    4 -> Gen.const(NextGaussian),
    3 -> Gen.const(NextDouble),
    3 -> bound.map(NextInt(_)),
    1 -> Gen.const(NextLong),
    1 -> Gen.const(NextBoolean),
    1 -> Gen.long.map(SetSeed(_)))

  private val calls: Gen[(Long, List[Call])] = for {
    seed <- Gen.long
    n <- Gen.choose(1, 300)
    cs <- Gen.listOfN(n, call)
  } yield (seed, cs)

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def bare(r: java.util.Random, calls: List[Call]): List[Long] = calls.map {
    case NextDouble    => bits(r.nextDouble())
    case NextGaussian  => bits(r.nextGaussian())
    case NextInt(b)    => r.nextInt(b).toLong
    case NextLong      => r.nextLong()
    case NextBoolean   => if (r.nextBoolean()) 1L else 0L
    case SetSeed(s)    => r.setSeed(s); 0L
  }

  private def wrapped(r: scala.util.Random, calls: List[Call]): List[Long] = calls.map {
    case NextDouble    => bits(r.nextDouble())
    case NextGaussian  => bits(r.nextGaussian())
    case NextInt(b)    => r.nextInt(b).toLong
    case NextLong      => r.nextLong()
    case NextBoolean   => if (r.nextBoolean()) 1L else 0L
    case SetSeed(s)    => r.setSeed(s); 0L
  }

  property("gives java.util.Random's stream, bare and wrapped in scala.util.Random") =
    Prop.forAllNoShrink(calls) { case (seed, cs) =>
      val label = s"seed=$seed calls=${cs.take(8).mkString(", ")}…"
      ((bare(new UnsyncRandom(seed), cs) == bare(new java.util.Random(seed), cs)) :| s"$label: bare") &&
        ((wrapped(new scala.util.Random(new UnsyncRandom(seed)), cs) ==
          wrapped(new scala.util.Random(seed), cs)) :| s"$label: wrapped")
    }
}
