package repro.space

import scala.util.Random

/** Per-candidate reference for `ConfigSpace.drawPool`: each draw decodes a
  * whole unit point with `fromUnit`, and its unit row is `toUnit` of the
  * decoded config followed by `extra`. These are the three streams the
  * BO loop drew its candidates from one call at a time; the tests check the
  * one-pass pool against them to the bit.
  */
object PoolRef {
  /** One uniform draw in the sub-space: free dims drawn in `free`'s order,
    * pinned numeric dims decoded back from the anchor's encoding, pinned
    * categorical dims the anchor's index. */
  def sampleInSubspace(cs: ConfigSpace, anchor: Config, free: Set[Int], r: Random): Config = {
    val u = cs.toUnit(anchor)
    free.foreach { i =>
      u(i) = if (cs.isCat(i)) r.nextInt(cs.cardinality(i)).toDouble else r.nextDouble()
    }
    val cfg = cs.fromUnit(u)
    Config(Vector.tabulate(cs.dim)(i => if (!free.contains(i) && cs.isCat(i)) anchor(i) else cfg(i)))
  }

  /** One local move: free numeric dims take a Gaussian step in the unit
    * cube, free categorical dims are redrawn with probability
    * `ConfigSpace.PCat`. */
  def perturbInSubspace(cs: ConfigSpace, anchor: Config, free: Set[Int], rng: Random,
                        sigma: Double): Config = {
    val u = cs.toUnit(anchor)
    free.foreach { i =>
      if (!cs.isCat(i)) u(i) = (u(i) + rng.nextGaussian() * sigma).max(0.0).min(1.0)
      else if (rng.nextDouble() < ConfigSpace.PCat) u(i) = rng.nextInt(cs.cardinality(i)).toDouble
    }
    cs.fromUnit(u)
  }

  /** One uniform draw over the whole space. */
  def sampleRandom(cs: ConfigSpace, rng: Random): Config =
    cs.fromUnit(Array.fill(cs.dim)(rng.nextDouble()))

  /** The pool as the three streams, in order, and each draw's unit row. */
  def pool(cs: ConfigSpace, anchors: Seq[Config], free: Set[Int], rng: Random,
           nSub: Int, nLoc: Int, nGlob: Int, sigma: Double,
           extra: Array[Double]): (Vector[Config], Vector[Array[Double]]) = {
    val configs =
      Vector.tabulate(nSub)(i => sampleInSubspace(cs, anchors(i % anchors.size), free, rng)) ++
        Vector.tabulate(nLoc)(i => perturbInSubspace(cs, anchors(i % anchors.size), free, rng, sigma)) ++
        Vector.fill(nGlob)(sampleRandom(cs, rng))
    (configs, configs.map(c => cs.toUnit(c) ++ extra))
  }
}
