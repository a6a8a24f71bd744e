package repro.surrogate

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.env.FleetGen
import repro.space.SparkParams

class KernelsSpec extends AnyFunSuite {
  private val cs = SparkParams.space()

  /** k(X, y): the block of the one point y. */
  private def row(rows: KernelRows, y: Array[Double]): Array[Double] = rows.block(Block.of(Array(y))).map(_(0))

  /** k(x, y) through the production rows: `k` bound to the one point x. */
  private def kv(k: MixedKernel, x: Array[Double], y: Array[Double]): Double =
    row(GpTestKit.rows(k, Array(x)), y)(0)

  private def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)

  // The kernel with only the dims of one factor; the others are over no
  // dims and so are 1.
  private val none = Array.empty[Int]
  private def matern52(dims: Array[Int], ls: Double) = new MixedKernel(dims, none, none, ls, 1.0, 1.0)
  private def sqExp(dims: Array[Int], ls: Double) = new MixedKernel(none, none, dims, 1.0, 1.0, ls)
  private def hamming(dims: Array[Int], ls: Double) = new MixedKernel(none, dims, none, 1.0, ls, 1.0)

  test("Matern52 at zero distance is 1") {
    val k = matern52(Array(0, 1, 2), 0.5)
    val x = Array(0.3, 0.4, 0.5)
    assert(math.abs(kv(k, x, x) - 1.0) < 1e-12)
  }

  test("Matern52 decays with distance and is symmetric") {
    val k = matern52(Array(0), 0.5)
    val a = Array(0.0); val b = Array(0.3); val c = Array(0.9)
    assert(kv(k, a, b) > kv(k, a, c))
    assert(kv(k, a, b) == kv(k, b, a))
    assert(kv(k, a, c) > 0.0 && kv(k, a, c) < 1.0)
  }

  test("Matern52 closed form at r = lengthscale") {
    val k = matern52(Array(0), 1.0)
    val v = kv(k, Array(0.0), Array(1.0)) // r = 1
    val expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
    assert(math.abs(v - expected) < 1e-12)
  }

  test("Matern52 over empty dims is constant 1") {
    val k = matern52(Array.empty, 0.5)
    assert(kv(k, Array(0.1), Array(0.9)) == 1.0)
    assert(row(GpTestKit.rows(k, Array(Array(0.1), Array(0.5))), Array(0.9)).toSeq == Seq(1.0, 1.0))
    assert(row(GpTestKit.rows(sqExp(Array.empty, 0.5), Array(Array(0.1))), Array(0.9)).toSeq == Seq(1.0))
  }

  test("SqExp matches exp(-d²/2ℓ²)") {
    val k = sqExp(Array(0), 0.5)
    val v = kv(k, Array(0.0), Array(0.5)) // d=0.5, ℓ=0.5 → exp(-0.5)
    assert(math.abs(v - math.exp(-0.5)) < 1e-12)
  }

  test("Hamming counts mismatching categorical dims") {
    val k = hamming(Array(0, 1), 1.0)
    assert(kv(k, Array(0.0, 1.0), Array(0.0, 1.0)) == 1.0)
    assert(math.abs(kv(k, Array(0.0, 1.0), Array(0.0, 2.0)) - math.exp(-1.0)) < 1e-12)
    assert(math.abs(kv(k, Array(0.0, 1.0), Array(1.0, 2.0)) - math.exp(-2.0)) < 1e-12)
  }

  test("Hamming table holds exp(-mis/ℓ) for every mismatch count") {
    for (n <- 0 to 7; ls <- Seq(0.5, 1.0, 2.0, 0.3)) {
      val k = hamming(Array.range(0, n), ls)
      assert(k.byMismatch.length == n + 1)
      (0 to n).foreach(mis => assert(k.byMismatch(mis) == math.exp(-mis / ls), s"n=$n ls=$ls mis=$mis"))
    }
  }

  test("MixedKernel multiplies Matérn, Hamming and SE in that order") {
    val r = new Random(9)
    val k = new MixedKernel(Array(0, 1), Array(2, 3), Array(4), 0.5, 1.0, 0.25)
    def point() = Array(r.nextDouble(), r.nextDouble(), r.nextInt(3).toDouble, r.nextInt(2).toDouble, r.nextDouble())
    (0 until 200).foreach { _ =>
      val (x, y) = (point(), point())
      val product = kv(matern52(Array(0, 1), 0.5), x, y) * kv(hamming(Array(2, 3), 1.0), x, y) *
        kv(sqExp(Array(4), 0.25), x, y)
      assert(bits(kv(k, x, y)) == bits(product))
    }
  }

  test("forSpace builds a kernel with k(x,x)=1") {
    // Gp takes k(x, x) as the constant 1 instead of reading it from the
    // kernel, so it must hold to the bit for every point the tuner
    // encodes, including categorical coordinates off their index.
    val r = new Random(6)
    for (space <- Seq(FleetGen.hibenchSpace, FleetGen.prodSpace); ds <- Seq(false, true);
         ls <- Seq(0.5, 1.0, 2.0)) {
      val k = MixedKernel.family(space, withDataSize = ds)(ls)
      val xs = Array.fill(20) {
        val u = space.toUnit(space.sampleRandom(r))
        (0 until space.dim).filter(space.isCat).foreach(i => u(i) += 0.6 * r.nextDouble() - 0.3)
        if (ds) u :+ r.nextDouble() else u
      }
      val gram = GpTestKit.rows(k, xs).block(Block.of(xs))
      xs.indices.foreach(i => assert(bits(gram(i)(i)) == bits(1.0), s"ds=$ds ls=$ls i=$i"))
    }
  }

  test("forSpace with data size reacts to the trailing dim") {
    val k = MixedKernel.family(cs, withDataSize = true)(1.0)
    val x = cs.toUnit(SparkParams.defaults(cs)) :+ 0.2
    val y = cs.toUnit(SparkParams.defaults(cs)) :+ 0.9
    assert(kv(k, x, y) < kv(k, x, x))
  }

  test("categorical change lowers the mixed kernel via Hamming") {
    val k = MixedKernel.family(cs, withDataSize = false)(1.0)
    val c0 = SparkParams.defaults(cs)
    val c1 = cs.withValue(c0, SparkParams.IoCodec, 2.0)
    assert(kv(k, cs.toUnit(c0), cs.toUnit(c1)) < 1.0)
  }

  test("kernel rows equal apply bit for bit, also on duplicate training points") {
    val r = new Random(4)
    for (space <- Seq(FleetGen.hibenchSpace, FleetGen.prodSpace); ds <- Seq(false, true);
         n <- Seq(1, 2, 17, 30); ls <- Seq(0.4, 0.5, 1.0, 2.0)) {
      // Categorical coordinates are moved off their integer index by up to
      // ±0.3, so a row must round them as the reference does.
      def point() = {
        val u = space.toUnit(space.sampleRandom(r))
        (0 until space.dim).filter(space.isCat).foreach(i => u(i) += 0.6 * r.nextDouble() - 0.3)
        if (ds) u :+ r.nextDouble() else u
      }
      // The second half of the training points repeats the first half.
      val distinct = Array.fill((n + 1) / 2)(point())
      val xs = Array.tabulate(n)(i => distinct(i % distinct.length).clone())
      val k = MixedKernel.forSpace(space, withDataSize = ds, numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls)
      val ref = KernelRef.forSpace(space, withDataSize = ds, numLs = 0.5 * ls, catLs = ls, dsLs = 0.5 * ls)
      val rows = GpTestKit.rows(k, xs)
      // Gp factors the gram's lower triangle in place, as K's.
      val gram = rows.block(Block.of(xs))
      for (i <- 0 until n; j <- 0 until i)
        assert(bits(gram(i)(j)) == bits(gram(j)(i)), s"n=$n ds=$ds ls=$ls i=$i j=$j")
      val queries = xs ++ Array.fill(5)(point())
      // All queries as one block: column j is query j's row.
      val block = rows.block(Block.of(queries))
      assert(block.forall(_.length == queries.length))
      queries.zipWithIndex.foreach { case (x, j) =>
        val kx = row(rows, x)
        assert(kx.length == n)
        (0 until n).foreach { i =>
          assert(bits(kx(i)) == bits(ref(xs(i), x)), s"n=$n ds=$ds ls=$ls i=$i")
          assert(bits(block(i)(j)) == bits(kx(i)), s"n=$n ds=$ds ls=$ls i=$i j=$j")
        }
      }
    }
  }

  test("scaling by 1/ℓ equals dividing by ℓ to the bit for power-of-two ℓ") {
    // Every lengthscale the tuner and the warm start use is a power of two,
    // so the kernels' product form leaves every history where the quotient
    // form put it.
    val r = new Random(12)
    for (ls <- Seq(0.25, 0.5, 1.0, 2.0); _ <- 0 until 10000) {
      val d = r.nextDouble() - r.nextDouble()
      assert(bits(d / ls) == bits(d * (1.0 / ls)), s"ls=$ls d=$d")
    }
  }
}
