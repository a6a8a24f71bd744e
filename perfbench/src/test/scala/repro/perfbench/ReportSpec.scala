package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class ReportSpec extends AnyFunSuite {

  private val ok = Round(attempted = 10, failed = 0, wallSec = 1.5, units = Seq(("job", 10, 1.5)),
    suggestMs = Seq(("a", 2.0)), quality = Map("best_red_pct" -> 50.0), fingerprint = Seq(1),
    checks = Seq("count" -> true))

  // A Spark job that threw, as FleetBench and CompareBench record it.
  private val failedJob = Round(attempted = 10, failed = 10, wallSec = Double.NaN, units = Nil,
    suggestMs = Nil, quality = Map.empty, fingerprint = Nil, checks = Seq("job" -> false))

  private def metric(v: Double) = Map[String, Any]("value" -> v, "unit" -> "s")

  test("a failed round counts all its sessions as failed and makes the run incorrect") {
    val (checks, res) = Main.result(Seq(ok, failedJob), Seq("job" -> false),
      Map("sessions_per_s" -> metric(Double.NaN), "setup_s" -> metric(2.0)))
    assert(res("correct") == false)
    assert(res("attempted") == 20 && res("failed") == 10)
    assert(checks.contains("metrics.finite" -> false))
    val metrics = res("metrics").asInstanceOf[Map[String, Map[String, Any]]]
    assert(metrics("sessions_per_s")("value") == -1.0 && metrics("setup_s")("value") == 2.0)
    assert(Json.render(res).contains("\"failed\": 10"))
  }

  test("a run whose checks pass and whose metrics are finite is correct") {
    val (_, res) = Main.result(Seq(ok, ok), Seq("count" -> true), Map("setup_s" -> metric(2.0)))
    assert(res("correct") == true && res("attempted") == 20 && res("failed") == 0)
  }

  test("non-finite numbers render as null, so a failed round's wall time can be printed") {
    assert(Json.render(Map("round_wall_s" -> failedJob.wallSec)) == """{"round_wall_s": null}""")
    assert(Json.render(Seq(1.5, Double.PositiveInfinity, 3.0)) == "[1.5, null, 3]")
  }

  test("strings are escaped") {
    assert(Json.render("a\"b\\c\nd\u0001") == "\"a\\\"b\\\\c\\nd\\u0001\"")
  }
}
