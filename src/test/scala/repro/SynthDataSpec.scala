package repro

class SynthDataSpec extends SparkSpec {

  test("generators are deterministic in (sf, seed)") {
    def rows(df: org.apache.spark.sql.DataFrame) = df.collect().map(_.toString).sorted
    assert(rows(SynthData.zipfKeys(spark, 500, 40, seed = 6))
      .sameElements(rows(SynthData.zipfKeys(spark, 500, 40, seed = 6))))
    assert(rows(SynthData.uniformKeys(spark, 500, 40, seed = 6))
      .sameElements(rows(SynthData.uniformKeys(spark, 500, 40, seed = 6))))
  }

  test("zipf keys are skewed: top key far exceeds the median count") {
    val counts = SynthData.zipfKeys(spark, 20000, 1000, seed = 3)
      .groupBy("k").count().collect().map(_.getLong(1)).sorted
    assert(counts.last > counts(counts.length / 2) * 5)
  }

  test("uniform keys cover the key range roughly evenly") {
    val ks = SynthData.uniformKeys(spark, 10000, 10, seed = 4)
      .groupBy("k").count().collect()
    assert(ks.length == 10)
    val cs = ks.map(_.getLong(1))
    assert(cs.max < cs.min * 2)
  }
}
