package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Table5Job
import repro.space.{SparkParams => SP}

/** Table 5 bench: top-10 parameters by fANOVA importance.
  *
  * Paper head: instances 0.3788, memory 0.1501, storageFraction 0.0469,
  * parallelism 0.0366, fraction 0.0345, cores 0.0236, then codec, shuffle
  * buffer, shuffle.compress, serializer (all ≤ 0.02). Shape asserted:
  * resource/parallelism parameters dominate; the paper's top-6 set overlaps
  * ours heavily; tail importances are small.
  */
class BenchTable5 extends AnyFunSuite {

  private lazy val rows = Table5Job.rows()

  test("reproduce Table 5 (prints the table)") {
    Table5Job.render(rows).linesIterator.foreach(info(_))
    assert(rows.size == 10)
  }

  test("executor.instances, executor.memory and parallelism rank in the top 4") {
    val top4 = rows.take(4).map(_.name).toSet
    assert(top4.contains(SP.Instances))
    assert(top4.contains(SP.ExecMemory))
    assert(top4.contains(SP.Parallelism))
  }

  test("the paper's top-6 parameter set overlaps ours by at least 4") {
    val paperTop6 = Set(SP.Instances, SP.ExecMemory, SP.StorageFraction,
      SP.Parallelism, SP.MemoryFraction, SP.ExecCores)
    val ourTop6 = rows.take(6).map(_.name).toSet
    assert((paperTop6 & ourTop6).size >= 4, s"overlap: ${paperTop6 & ourTop6}")
  }

  test("importances are a valid variance decomposition: in [0,1], head-heavy") {
    rows.foreach(r => assert(r.mean >= 0.0 && r.mean <= 1.0))
    assert(rows.head.mean > 5 * rows.last.mean)
  }

  test("tail importances are small (paper: rank 7-10 all below 0.03)") {
    rows.drop(6).foreach(r => assert(r.mean < 0.08, r.name))
  }
}
