package repro

import org.apache.spark.sql.functions._

class OracleSpec extends SparkSpec {

  private def keys = SynthData.zipfKeys(spark, 2000, 50, seed = 9)
  private val sql = "SELECT k, count(*) AS cnt FROM keys GROUP BY k"

  test("assertEquivalent passes for a matching aggregate") {
    val got = keys.groupBy("k").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(got, sql, "keys" -> keys)
  }

  test("assertEquivalent fails when the query differs") {
    val wrong = keys.groupBy("k").agg((count(lit(1)) + 1) as "cnt")
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "keys" -> keys)
    }
  }

  test("assertEquivalent requires matching column names") {
    val misnamed = keys.groupBy("k").agg(count(lit(1)) as "n")
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(misnamed, sql, "keys" -> keys)
    }
  }
}
