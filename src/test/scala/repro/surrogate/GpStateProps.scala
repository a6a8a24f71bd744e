package repro.surrogate

import scala.util.Random
import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.env.FleetGen
import repro.space.ConfigSpace

/** The session GP state and the distances-once kernel blocks, against a
  * fresh state's fit (`GpTestKit.fitAll`) and against the per-pair
  * `KernelRef`. */
object GpStateProps extends Properties("GpState") {
  private def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)
  private def bits(ps: Seq[Pred]): Seq[(Long, Long)] = ps.map(p => (bits(p.mean), bits(p.variance)))

  /** A unit-encoded point of `cs`, its categorical coordinates moved off
    * their index by up to ±0.3, with a data-size coordinate when `ds`. */
  private def point(cs: ConfigSpace, ds: Boolean, r: Random): Array[Double] = {
    val u = cs.toUnit(cs.sampleRandom(r))
    (0 until cs.dim).filter(cs.isCat).foreach(i => u(i) += 0.6 * r.nextDouble() - 0.3)
    if (ds) u :+ r.nextDouble() else u
  }

  private final case class Setup(cs: ConfigSpace, ds: Boolean, seed: Long) {
    override def toString = s"${if (cs.dim == FleetGen.hibenchSpace.dim) "hibench" else "prod"} ds=$ds seed=$seed"
  }

  private val setup: Gen[Setup] = for {
    cs <- Gen.oneOf(FleetGen.hibenchSpace, FleetGen.prodSpace)
    ds <- Gen.oneOf(false, true)
    seed <- Gen.long
  } yield Setup(cs, ds, seed)

  /** Two targets on `xs`: one smooth in the first coordinates, one noise,
    * so that the two GPs often select different lengthscales. */
  private def targets(xs: Array[Array[Double]], r: Random): (Array[Double], Array[Double]) =
    (xs.map(x => math.sin(3 * x(0)) + x(1)), xs.map(_ => r.nextGaussian()))

  property("a state fed histories in turn fits what fitAll fits on each: ℓ, μ, σ and LOO residuals") =
    Prop.forAllNoShrink(setup, Gen.oneOf(1e-3, 0.0, -1e-6)) { (s, noise) =>
      val r = new Random(s.seed)
      // Two unrelated histories; the second repeats points, so its kernel
      // grams are singular. A negative τ² takes their pivots below zero, so
      // the jitter escalates.
      val a = Array.fill(14)(point(s.cs, s.ds, r))
      val b0 = Array.fill(5)(point(s.cs, s.ds, r))
      val b = Array.tabulate(12)(i => b0(i % b0.length))
      val (ya1, ya2) = targets(a, r)
      val (yb1, yb2) = targets(b, r)
      val kernelOf = MixedKernel.family(s.cs, withDataSize = s.ds)
      val state = new GpState(kernelOf, noise)
      val pts = Block.of(Array.fill(30)(point(s.cs, s.ds, r)) ++ a.take(2) ++ b.take(2))
      // Grows, shrinks, jumps to the other history and back.
      val steps = Seq(("a", 1), ("a", 2), ("a", 6), ("a", 7), ("b", 3), ("b", 12), ("a", 14), ("a", 5), ("b", 12))
      var differentLs = false
      var escalated = false
      val bad = steps.filterNot { case (h, n) =>
        val (xs, y1, y2) = if (h == "a") (a, ya1, ya2) else (b, yb1, yb2)
        val (xn, t1, t2) = (xs.take(n), y1.take(n), y2.take(n))
        // The same point arrays, so a prefix of the history is recognised.
        val got = state.update(xs.toIndexedSeq.take(n))(identity).fit(Seq(t1, t2))
        val ref = GpTestKit.fitAll(xn, Seq(t1, t2), kernelOf, noise)
        differentLs ||= got(0).f.ls != got(1).f.ls
        escalated ||= Gp.LsGrid.indices.exists(state.factor(_).jitter > repro.linalg.GrowingCholesky.Jitter)
        state.n == n && got.zip(ref).forall { case (g, f) =>
          g.f.ls == f.f.ls && bits(g.predictBlock(pts).toSeq) == bits(f.predictBlock(pts).toSeq) &&
            g.looResiduals.map(bits).toSeq == f.looResiduals.map(bits).toSeq
        } && {
          val (p1, p2) = got(0).predictPair(got(1), pts)
          bits(p1.toSeq) == bits(ref(0).predictBlock(pts).toSeq) && bits(p2.toSeq) == bits(ref(1).predictBlock(pts).toSeq)
        }
      }
      Prop.classify(differentLs, "the two GPs selected different ℓ") {
        Prop.classify(escalated, "jitter escalated") {
          bad.isEmpty :| s"$s noise=$noise: differs at ${bad.mkString(", ")}"
        }
      }
    }

  property("distances-once blocks equal KernelRows.block and KernelRef for every LsGrid ℓ") =
    Prop.forAllNoShrink(setup, Gen.choose(1, 25), Gen.choose(1, 60)) { (s, n, m) =>
      val r = new Random(s.seed)
      val xs = Array.fill(n)(point(s.cs, s.ds, r))
      val c = Array.fill(m)(point(s.cs, s.ds, r))
      val kernels = Gp.LsGrid.map(MixedKernel.family(s.cs, withDataSize = s.ds)).toArray
      // Every kernel bound to one set of columns, as a GpState binds them.
      val x = Columns.empty(kernels(0), n)
      xs.indices.foreach(p => x.set(p, xs(p), kernels(0)))
      val rows = kernels.map(new KernelRows(_, x, n))
      val refs = Gp.LsGrid.map(ls =>
        KernelRef.forSpace(s.cs, withDataSize = s.ds, numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls))
      val subsets = Seq(Seq(0, 1, 2), Seq(0, 1), Seq(0, 2), Seq(1, 2), Seq(2, 0))
      val bad = for {
        sub <- subsets
        (blk, r) <- KernelRows.blocks(sub.map(rows(_)).toArray, Block.of(c)).zip(sub)
        if !(blk.map(_.map(bits).toSeq).toSeq == rows(r).block(Block.of(c)).map(_.map(bits).toSeq).toSeq &&
          (0 until n).forall(i => (0 until m).forall(j => bits(blk(i)(j)) == bits(refs(r)(xs(i), c(j))))))
      } yield s"ℓ=${Gp.LsGrid(r)} in ${sub.map(Gp.LsGrid(_)).mkString("{", ", ", "}")}"
      bad.isEmpty :| s"$s n=$n m=$m: ${bad.mkString("; ")}"
    }
}
