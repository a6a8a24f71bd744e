package repro.env

import org.scalatest.funsuite.AnyFunSuite
import repro.space.{SparkParams => SP}

class WorkloadSpecSpec extends AnyFunSuite {
  private val cs = FleetGen.hibenchSpace
  private val base = FleetGen.manualConfig(cs, 16, 4, 8, parallelism = 256)

  test("spec validation rejects non-positive inputs") {
    assertThrows[IllegalArgumentException](
      WorkloadSpec("bad", inputGB = 0, cpuSecPerGB = 1, shuffleFrac = 0, numStages = 1))
    assertThrows[IllegalArgumentException](
      WorkloadSpec("bad", inputGB = 1, cpuSecPerGB = 1, shuffleFrac = 0, numStages = 0))
  }

  test("dataSizeAt is deterministic and bounded below") {
    val s = Workloads.KMeans
    assert(s.dataSizeAt(5) == s.dataSizeAt(5))
    (0 until 100).foreach(i => assert(s.dataSizeAt(i) >= s.inputGB * 0.2))
  }

  test("dataSizeUnit maps twice the nominal input to 1 and clamps to [0, 1]") {
    val s = Workloads.TeraSort
    assert(s.dataSizeUnit(s.inputGB) == 0.5)
    assert(s.dataSizeUnit(3 * s.inputGB) == 1.0 && s.dataSizeUnit(-1.0) == 0.0)
    (0 until 48).foreach { i =>
      val ds = s.dataSizeAt(i)
      assert(s.dataSizeUnit(ds) == (ds / (2.0 * s.inputGB)).min(1.0).max(0.0))
    }
  }

  test("the six §6.1 tasks are a subset of the sixteen meta-learning tasks") {
    val names16 = Workloads.sixteen.map(_.name).toSet
    Workloads.six.foreach(s => assert(names16.contains(s.name)))
    assert(Workloads.six.size == 6 && Workloads.sixteen.size == 16)
  }

  test("workload names are unique and resolvable") {
    val names = Workloads.sixteen.map(_.name)
    assert(names.distinct.size == 16)
    names.foreach(n => assert(Workloads.byName(n).name == n))
    assertThrows[NoSuchElementException](Workloads.byName("zzz"))
  }

  test("speculation trims the skew tail on a skewed workload") {
    val sim = new SparkClusterSim(Workloads.NWeight, cs)
    val off = cs.withValue(base, SP.Speculation, 0)
    val on = cs.withValue(base, SP.Speculation, 1)
    assert(sim.expectedRuntime(on, 10) < sim.expectedRuntime(off, 10))
  }

  test("locality wait adds scheduling delay") {
    val sim = new SparkClusterSim(Workloads.WordCount, cs)
    val zero = cs.withValue(base, SP.LocalityWait, 0.0)
    val ten = cs.withValue(base, SP.LocalityWait, 10.0)
    assert(sim.expectedRuntime(ten, 32) > sim.expectedRuntime(zero, 32))
  }

  test("maxPartitionBytes trades scan partitions for per-task size") {
    val sim = new SparkClusterSim(Workloads.WordCount, cs)
    val tiny = cs.withValue(base, SP.MaxPartitionBytes, 16)
    val huge = cs.withValue(base, SP.MaxPartitionBytes, 512)
    // Tiny partitions → more scheduling overhead on a scan-heavy job.
    assert(sim.expectedRuntime(tiny, 32) != sim.expectedRuntime(huge, 32))
  }

  test("rdd compression shrinks the cache footprint of iterative jobs") {
    val sim = new SparkClusterSim(Workloads.PageRank, cs)
    val mid = FleetGen.manualConfig(cs, 8, 2, 4, parallelism = 128)
    val off = cs.withValue(mid, SP.RddCompress, 0)
    val on = cs.withValue(mid, SP.RddCompress, 1)
    assert(sim.expectedRuntime(on, 12) <= sim.expectedRuntime(off, 12))
  }

  test("zstd compresses harder but costs more CPU than lz4") {
    val sim = new SparkClusterSim(Workloads.TeraSort, cs)
    val lz4 = cs.withValue(base, SP.IoCodec, 0)
    val zstd = cs.withValue(base, SP.IoCodec, 2)
    val a = sim.expectedRuntime(lz4, 32)
    val b = sim.expectedRuntime(zstd, 32)
    assert(math.abs(a - b) / a < 0.5) // same ballpark — a trade-off, not a cliff
  }

  test("higher memory fraction helps under memory pressure") {
    val sim = new SparkClusterSim(Workloads.Sort, cs)
    val tight = FleetGen.manualConfig(cs, 8, 4, 4, parallelism = 64)
    val lo = cs.withValue(tight, SP.MemoryFraction, 0.3)
    val hi = cs.withValue(tight, SP.MemoryFraction, 0.9)
    assert(sim.expectedRuntime(hi, 24) <= sim.expectedRuntime(lo, 24))
  }

  test("failure flag matches runtime inflation") {
    val sim = new SparkClusterSim(Workloads.TeraSort, cs)
    val starved = cs.withValue(cs.withValue(base, SP.ExecMemory, 1), SP.Parallelism, 8)
    val r = sim.runAt(starved, 32, 0)
    assert(r.failed)
  }

  test("ProdTask is serializable (fleet ships through Spark)") {
    val t = FleetGen.fleet(1, seed = 3).head
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(t)
    assert(bos.size() > 0)
  }
}
