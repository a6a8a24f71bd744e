package repro.core

/** `java.util.Random` on a plain `long`: the 48-bit linear congruential
  * generator its Javadoc specifies, and the same polar method for
  * `nextGaussian`, so `new UnsyncRandom(s)` gives the stream of
  * `new java.util.Random(s)` to the bit, call for call. What it drops is
  * the thread safety: `next` updates a field instead of an `AtomicLong`
  * by compare-and-set, and `nextGaussian` takes no lock. Every other
  * method (`nextInt(bound)`, `nextDouble`, `nextLong`, …) is inherited
  * and draws through `next`. One instance must stay on one thread; a
  * tuning session's generator does.
  */
final class UnsyncRandom(seed: Long) extends java.util.Random(0L) {
  import UnsyncRandom._

  // java.util.Random's constructor calls setSeed before these fields are
  // initialised, which then resets them; the seed is set again below.
  private var state: Long = 0L
  private var nextNextGaussian: Double = 0.0
  private var haveNextNextGaussian: Boolean = false
  setSeed(seed)

  override def setSeed(seed: Long): Unit = {
    state = (seed ^ Multiplier) & Mask
    haveNextNextGaussian = false
  }

  override protected def next(bits: Int): Int = {
    state = (state * Multiplier + Addend) & Mask
    (state >>> (48 - bits)).toInt
  }

  override def nextGaussian(): Double =
    if (haveNextNextGaussian) {
      haveNextNextGaussian = false
      nextNextGaussian
    } else {
      var v1, v2, s = 0.0
      while ({
        v1 = 2 * nextDouble() - 1
        v2 = 2 * nextDouble() - 1
        s = v1 * v1 + v2 * v2
        s >= 1 || s == 0
      }) ()
      val multiplier = StrictMath.sqrt(-2 * StrictMath.log(s) / s)
      nextNextGaussian = v2 * multiplier
      haveNextNextGaussian = true
      v1 * multiplier
    }
}

private object UnsyncRandom {
  final val Multiplier = 0x5DEECE66DL
  final val Addend = 0xBL
  final val Mask = (1L << 48) - 1
}
