package repro.surrogate

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.env.FleetGen
import repro.linalg.{CholeskyRef, Lin}

class GpSpec extends AnyFunSuite {
  private val none = Array.empty[Int]

  /** Matérn-5/2 over the numeric dims `dims` alone. */
  private def matern52(dims: Array[Int], ls: Double) = new MixedKernel(dims, none, none, ls, 1.0, 1.0)

  private def kOf(ls: Double): MixedKernel = matern52(Array(0), 0.5 * ls)

  private def fit1d(xs: Seq[Double], ys: Seq[Double], noise: Double = 1e-6): Gp =
    Gp.fit(xs.map(Array(_)).toArray, ys.toArray, kOf, noise)

  /** `a.predictPair(b, ·)` on the points `xs`, as one block. */
  private def pair(a: Gp, b: Gp, xs: Array[Array[Double]]): Seq[(Pred, Pred)] = {
    val (pa, pb) = a.predictPair(b, Block.of(xs))
    pa.toSeq.zip(pb)
  }

  test("GP interpolates noiseless observations") {
    val xs = Seq(0.0, 0.25, 0.5, 0.75, 1.0)
    val ys = xs.map(x => math.sin(6 * x))
    val gp = fit1d(xs, ys)
    xs.zip(ys).foreach { case (x, y) =>
      assert(math.abs(gp.predict(Array(x)).mean - y) < 1e-2)
    }
  }

  test("predictive variance is near zero at data, larger away") {
    val gp = fit1d(Seq(0.0, 1.0), Seq(0.0, 1.0))
    val atData = gp.predict(Array(0.0)).variance
    val far = gp.predict(Array(0.5)).variance
    assert(atData < far)
  }

  test("mean reverts toward the target mean far from data") {
    val gp = fit1d(Seq(0.45, 0.55), Seq(10.0, 12.0))
    // With a short lengthscale, x=5 is far away in kernel terms.
    val p = gp.predict(Array(5.0))
    assert(math.abs(p.mean - 11.0) < 1.5)
  }

  test("fit selects lengthscale by marginal likelihood (no crash, n=1..3)") {
    (1 to 3).foreach { n =>
      val gp = fit1d((1 to n).map(_.toDouble / 4), (1 to n).map(_.toDouble))
      assert(gp.n == n)
      assert(!gp.predict(Array(0.1)).mean.isNaN)
    }
  }

  test("fit rejects empty and mismatched data") {
    assertThrows[IllegalArgumentException](Gp.fit(Array.empty, Array.empty, kOf))
    assertThrows[IllegalArgumentException](
      Gp.fit(Array(Array(0.0)), Array(1.0, 2.0), kOf))
  }

  test("predictions are finite under noisy targets") {
    val r = new Random(5)
    val xs = Seq.fill(30)(r.nextDouble())
    val ys = xs.map(x => x * x + 0.05 * r.nextGaussian())
    val gp = fit1d(xs, ys, noise = 1e-3)
    (0 to 10).foreach { i =>
      val p = gp.predict(Array(i / 10.0))
      assert(!p.mean.isNaN && p.variance > 0)
    }
  }

  test("GP roughly recovers a quadratic") {
    val xs = (0 to 10).map(_ / 10.0)
    val ys = xs.map(x => (x - 0.3) * (x - 0.3))
    val gp = fit1d(xs, ys, noise = 1e-6)
    assert(math.abs(gp.predict(Array(0.35)).mean - 0.0025) < 0.02)
  }

  test("MetaEnsemble normalizes weights") {
    val gp = fit1d(Seq(0.0, 1.0), Seq(0.0, 1.0))
    val me = new MetaEnsemble(Vector(gp, gp), Vector(3.0, 1.0))
    assert(math.abs(me.normalizedWeights.sum - 1.0) < 1e-12)
    assert(math.abs(me.normalizedWeights(0) - 0.75) < 1e-12)
  }

  test("MetaEnsemble mean is the weighted mean of bases (Eq. 12)") {
    val a = fit1d(Seq(0.0, 1.0), Seq(0.0, 0.0))
    val b = fit1d(Seq(0.0, 1.0), Seq(10.0, 10.0))
    val me = new MetaEnsemble(Vector(a, b), Vector(0.5, 0.5))
    val p = me.predict(Array(0.5))
    val expected = 0.5 * a.predict(Array(0.5)).mean + 0.5 * b.predict(Array(0.5)).mean
    assert(math.abs(p.mean - expected) < 1e-9)
  }

  test("MetaEnsemble variance uses squared weights (Eq. 12)") {
    val a = fit1d(Seq(0.0, 1.0), Seq(0.0, 1.0))
    val me = new MetaEnsemble(Vector(a, a), Vector(0.5, 0.5))
    val single = a.predict(Array(0.5)).variance
    assert(math.abs(me.predict(Array(0.5)).variance - 0.5 * single) < 1e-9)
  }

  test("MetaEnsemble with all-zero weights falls back to uniform") {
    val a = fit1d(Seq(0.0, 1.0), Seq(0.0, 1.0))
    val me = new MetaEnsemble(Vector(a, a), Vector(0.0, 0.0))
    assert(me.normalizedWeights.forall(w => math.abs(w - 0.5) < 1e-12))
  }

  test("a shared kernel row gives the same prediction as predict") {
    val r = new Random(3)
    val xs = Array.fill(12)(Array(r.nextDouble(), r.nextDouble()))
    val k = matern52(Array(0, 1), 0.4)
    val Vector(a, b) = GpTestKit.fitAll(xs, Seq(xs.map(x => math.sin(5 * x(0)) + x(1)), xs.map(x => x(0) * x(1))),
      _ => k)
    assert(a.f eq b.f)
    val pts = Array.fill(20)(Array(r.nextDouble(), r.nextDouble()))
    assert(pair(a, b, pts) == pts.toSeq.map(x => (a.predict(x), b.predict(x))))
    assert(pair(b, a, pts) == pts.toSeq.map(x => (b.predict(x), a.predict(x))))
  }

  test("predictPair rejects GPs of different fits") {
    val xs = Array(Array(0.1), Array(0.5), Array(0.9))
    val ys = Array(1.0, 2.0, 0.5)
    val k = matern52(Array(0), 0.5)
    val pts = Block.of(Array(0.0, 0.3, 0.5, 0.77, 1.2).map(Array(_)))
    // One state's fits at two sizes, and a fit on the same points by
    // another state.
    val state = new GpState(_ => k, 1e-4)
    val Vector(smaller) = state.update(xs.take(2).toIndexedSeq)(identity).fit(Seq(ys.take(2)))
    val Vector(gp) = state.update(xs.toIndexedSeq)(identity).fit(Seq(ys))
    for (o <- Seq(smaller, Gp.fit(xs, ys.reverse, _ => k))) {
      assertThrows[IllegalArgumentException](gp.predictPair(o, pts))
      assertThrows[IllegalArgumentException](o.predictPair(gp, pts))
    }
  }

  test("fitAll equals a separate fit per target; predictPair equals two predicts") {
    val r = new Random(8)
    def point() = Array(4 * r.nextDouble())
    val xs = Array.fill(15)(point())
    val smooth = xs.map(x => math.sin(x(0)))
    val yss = Seq(smooth, xs.map(_ => r.nextGaussian()), smooth.map(y => 3.0 * y - 1.0))
    val together = GpTestKit.fitAll(xs, yss, kOf, noise = 1e-3)
    val alone = yss.map(ys => Gp.fit(xs, ys, kOf, noise = 1e-3))
    // GPs that selected the same lengthscale share its factor.
    val shared = for (a <- together; b <- together if a ne b) yield a.f eq b.f
    assert(shared.contains(true) && shared.contains(false))
    val pts = xs.take(3) ++ Array.fill(20)(point())
    pts.foreach { x =>
      together.zip(alone).foreach { case (t, a) => assert(t.predict(x) == a.predict(x)) }
    }
    for (a <- together; b <- together)
      assert(pair(a, b, pts) == pts.toSeq.map(x => (a.predict(x), b.predict(x))))
  }

  test("looResiduals equal a leave-one-out solve with the full fit's kernel and standardisation") {
    val r = new Random(11)
    // Two numeric dims (Matérn) and one three-way categorical (Hamming).
    val xs = Array.fill(12)(Array(r.nextDouble(), r.nextDouble(), r.nextInt(3).toDouble))
    val ys = xs.map(x => math.sin(4 * x(0)) + x(1) * x(1) + 0.5 * x(2) + 0.05 * r.nextGaussian())
    val k = new MixedKernel(Array(0, 1), Array(2), none, 0.4, 1.0, 1.0)
    val noise = 1e-3
    val gp = Gp.fit(xs, ys, _ => k, noise)
    val ref = KernelRef.mixed(Seq(KernelRef.matern52(Array(0, 1), 0.4), KernelRef.hamming(Array(2), 1.0)))
    val loo = gp.looResiduals

    val n = xs.length
    val yMean = ys.sum / n
    val yStd = math.sqrt(ys.map(y => (y - yMean) * (y - yMean)).sum / n)
    val gram = Array.tabulate(n, n)((a, b) => ref(xs(a), xs(b)) + (if (a == b) noise else 0.0))
    (0 until n).foreach { i =>
      val keep = (0 until n).filter(_ != i).toArray
      val (l, _) = CholeskyRef.cholesky(keep.map(a => keep.map(b => gram(a)(b))))
      val alpha = Lin.choleskySolve(l, keep.map(a => (ys(a) - yMean) / yStd))
      val mu = yMean + yStd * Lin.dot(keep.map(a => ref(xs(a), xs(i))), alpha)
      assert(math.abs(ys(i) - loo(i) - mu) < 1e-9, s"point $i")
    }
    assert(loo.exists(v => math.abs(v) > 1e-3))
  }

  test("block predictions equal a per-point reference to the bit") {
    val r = new Random(21)
    val space = FleetGen.hibenchSpace
    val noise = 1e-3
    for (ds <- Seq(false, true); m <- Seq(1, 400)) {
      def point() = {
        val u = space.toUnit(space.sampleRandom(r))
        if (ds) u :+ r.nextDouble() else u
      }
      val xs = Array.fill(20)(point())
      val yA = xs.map(x => math.sin(3 * x(0)) + x(1) + 0.1 * r.nextGaussian())
      val yB = xs.map(x => x(2) * x(3) + 0.1 * r.nextGaussian())
      val kernel = MixedKernel.family(space, withDataSize = ds)
      def refKernel(ls: Double) =
        KernelRef.forSpace(space, withDataSize = ds, numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls)

      // What predict computed before blocks, one point at a time: the
      // reference kernel row, then Lin.solveLower and Lin.dot.
      def reference(ls: Double, ys: Array[Double]): Array[Double] => Pred = {
        val k = refKernel(ls)
        val n = xs.length
        val (l, _) = CholeskyRef.cholesky(Array.tabulate(n)(i =>
          Array.tabulate(i + 1)(j => if (i == j) k(xs(j), xs(i)) + noise else k(xs(j), xs(i)))))
        val yMean = ys.sum / n
        val yStd = math.sqrt(ys.map(y => (y - yMean) * (y - yMean)).sum / n).max(1e-8)
        val alpha = Lin.choleskySolve(l, ys.map(y => (y - yMean) / yStd))
        x => {
          val kv = xs.map(k(_, x))
          val v = Lin.solveLower(l, kv)
          val varStd = (k(xs(0), xs(0)) + noise - Lin.dot(v, v)).max(1e-12)
          Pred(yMean + yStd * Lin.dot(kv, alpha), varStd * yStd * yStd)
        }
      }

      val pts = xs.take(m) ++ Array.fill(m - xs.take(m).length)(point())
      val block = Block.of(pts)
      val Vector(sharedA, sharedB) = GpTestKit.fitAll(xs, Seq(yA, yB), _ => kernel(1.0), noise)
      // Over the grid, not every target selects the lengthscale yA does.
      val ys = Seq(yA, yB, xs.map(_.sum), { val q = new Random(22); xs.map(_ => q.nextGaussian()) })
      val grid = GpTestKit.fitAll(xs, ys, kernel, noise).zip(ys)
      val (gridA, yGA) = grid.head
      val other = grid.find(_._1.f.ls != gridA.f.ls)
      assert((sharedA.f eq sharedB.f) && other.nonEmpty, s"ds=$ds m=$m")
      val (gridB, yGB) = other.get
      def bits(ps: Seq[Pred]) = ps.map(p =>
        (java.lang.Double.doubleToRawLongBits(p.mean), java.lang.Double.doubleToRawLongBits(p.variance)))
      def ref(ls: Double, ts: Array[Double]) = bits(pts.toSeq.map(reference(ls, ts)))
      val refA = ref(1.0, yA)
      for ((a, b, ya, yb) <- Seq((sharedA, sharedB, yA, yB), (gridA, gridB, yGA, yGB))) {
        val (lsA, lsB) = if (a eq sharedA) (1.0, 1.0) else (a.f.ls, b.f.ls)
        val (pa, pb) = a.predictPair(b, block)
        assert(bits(pa.toSeq) == ref(lsA, ya), s"ds=$ds m=$m ls=$lsA")
        assert(bits(pb.toSeq) == ref(lsB, yb), s"ds=$ds m=$m ls=$lsB")
        assert(bits(b.predictBlock(block).toSeq) == bits(pb.toSeq))
      }
      assert(bits(sharedA.predictBlock(block).toSeq) == refA)
      assert(bits(pts.toSeq.map(sharedA.predict)) == refA)
      val me = new MetaEnsemble(Vector(sharedA, gridB), Vector(0.3, 0.7))
      assert(bits(me.predictBlock(block).toSeq) == bits(pts.toSeq.map(me.predict)))
    }
  }

  test("Pred.sigma is sqrt of variance, floored") {
    assert(Pred(0.0, 4.0).sigma == 2.0)
    assert(Pred(0.0, -1.0).sigma > 0)
  }
}
