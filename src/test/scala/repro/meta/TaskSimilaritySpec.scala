package repro.meta

import org.scalatest.funsuite.AnyFunSuite
import repro.env.Workloads
import repro.space.SparkParams
import repro.surrogate.{Pred, Surrogate}

class TaskSimilaritySpec extends AnyFunSuite {
  import TaskSimilarity._
  private val cs = SparkParams.space()

  test("kendall tau of identical rankings is 1") {
    assert(kendallTau(Seq(1.0, 2.0, 3.0), Seq(10.0, 20.0, 30.0)) == 1.0)
  }

  test("kendall tau of reversed rankings is -1") {
    assert(kendallTau(Seq(1.0, 2.0, 3.0), Seq(3.0, 2.0, 1.0)) == -1.0)
  }

  test("kendall tau of a half-agreeing ranking is between") {
    val t = kendallTau(Seq(1.0, 2.0, 3.0, 4.0), Seq(1.0, 3.0, 2.0, 4.0))
    assert(t > 0 && t < 1)
  }

  test("kendall tau requires at least 2 points") {
    assertThrows[IllegalArgumentException](kendallTau(Seq(1.0), Seq(1.0)))
  }

  test("surrogate distance of a model with itself is 0") {
    val s: Surrogate = x => Pred(x.sum, 1.0)
    assert(surrogateDistance(cs, s, s, nSample = 50) == 0.0)
  }

  test("surrogate distance of opposite models is 1") {
    val a: Surrogate = x => Pred(x.sum, 1.0)
    val b: Surrogate = x => Pred(-x.sum, 1.0)
    assert(surrogateDistance(cs, a, b, nSample = 50) == 1.0)
  }

  test("pairFeatures is symmetric in its arguments") {
    val v1 = Array(0.1, 0.9); val v2 = Array(0.4, 0.2)
    assert(pairFeatures(v1, v2).toSeq == pairFeatures(v2, v1).toSeq)
    assert(pairFeatures(v1, v2).length == 4)
  }

  test("pairFeatures rejects mismatched dims") {
    assertThrows[IllegalArgumentException](pairFeatures(Array(1.0), Array(1.0, 2.0)))
  }

  test("trained distance model predicts small distance for similar tasks") {
    // Build synthetic "tasks": surrogates reading one meta-feature-correlated
    // direction; similar meta-features => similar surrogates.
    def task(shift: Double): (Array[Double], Surrogate) = {
      val mf = MetaFeatures.fromSpec(Workloads.TeraSort).map(v => (v + shift).min(1.0))
      val s: Surrogate = x => Pred((1.0 + shift * 5.0) * x(0) + shift * x(1), 1.0)
      (mf, s)
    }
    val tasks = Seq(task(0.0), task(0.02), task(0.5), task(0.6))
    val model = train(cs, tasks, nSample = 60, seed = 1)
    val dClose = model.distance(tasks(0)._1, tasks(1)._1)
    val dFar = model.distance(tasks(0)._1, tasks(3)._1)
    assert(dClose <= dFar + 0.15)
    assert(dClose >= 0.0 && dFar <= 1.0)
  }

  test("train requires at least two source tasks") {
    val s: Surrogate = x => Pred(0.0, 1.0)
    assertThrows[IllegalArgumentException](train(cs, Seq((Array(1.0), s)), nSample = 50))
  }
}
