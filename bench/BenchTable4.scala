package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Table4Job

/** Table 4 bench: warm-starting — execution cost of the top-3 transferred
  * configurations vs the default and manual configurations.
  *
  * Paper shape: default ≫ manual; the transferred top-3 beat manual on
  * every pair (66.03–95.19% below default, 25.44–55.93% below manual);
  * the per-source best transferred config is not always Top1.
  */
class BenchTable4 extends AnyFunSuite {

  private lazy val rows = Table4Job.rows(budget = 30)

  test("reproduce Table 4 (prints the table)") {
    Table4Job.render(rows).linesIterator.foreach(info(_))
    assert(rows.size == 4)
  }

  test("default configuration is far more expensive than manual on all pairs") {
    rows.foreach(r => assert(r.default > r.manual * 1.5, s"${r.target}<-${r.source}"))
  }

  test("the best transferred config beats manual on every pair (paper: 25-56%)") {
    rows.foreach { r =>
      val best = Seq(r.top1, r.top2, r.top3).min
      assert(best < r.manual, s"${r.target}<-${r.source}: $best vs manual ${r.manual}")
    }
  }

  test("transferred configs cut 60%+ of the default cost (paper: 66-95%)") {
    rows.foreach { r =>
      val best = Seq(r.top1, r.top2, r.top3).min
      assert(best < r.default * 0.4, s"${r.target}<-${r.source}")
    }
  }

  test("warm-start transfers multiple configs because Top1 is not always best") {
    // At least the phenomenon is representable: report which rank won.
    val winners = rows.map(r => Seq(r.top1, r.top2, r.top3).zipWithIndex.minBy(_._1)._2 + 1)
    info(s"Winning transferred rank per pair: ${winners.mkString(", ")}")
    assert(winners.forall(w => w >= 1 && w <= 3))
  }
}
