package repro.workload

import repro.SparkSpec
import repro.meta.MetaFeatures

class MetricsListenerSpec extends SparkSpec {

  test("capture yields a 75-dim vector from a real shuffle job") {
    val (_, v) = MetricsListener.capture(spark) {
      HiBenchJobs.wordCount(spark, 0.003).collect()
    }
    assert(v.length == MetaFeatures.Dim)
    assert(v(0) > 0.0, "stage count feature")
    assert(v(2) > 0.0, "shuffle-stage fraction")
    v.foreach(x => assert(x >= 0.0 && x <= 1.0))
  }

  test("task-level statistics are populated (durations observed)") {
    val (_, v) = MetricsListener.capture(spark) {
      HiBenchJobs.sortJob(spark, 0.003).collect()
    }
    val taskSlice = v.slice(MetaFeatures.StageDim, MetaFeatures.Dim)
    assert(taskSlice.exists(_ > 0.0))
  }

  test("shuffle-heavy job shows higher shuffle features than map-only scan") {
    val (_, shuffly) = MetricsListener.capture(spark) {
      HiBenchJobs.sortJob(spark, 0.003).collect()
    }
    val (_, scan) = MetricsListener.capture(spark) {
      repro.SynthData.uniformKeys(spark, 18000, 6000).select("k").collect()
    }
    assert(shuffly(2) >= scan(2)) // shuffle-stage fraction
  }

  test("listener detaches after capture (no residual task accumulation)") {
    val l = new MetricsListener
    spark.sparkContext.addSparkListener(l)
    spark.sparkContext.removeSparkListener(l)
    val before = l.vector.toSeq
    repro.SynthData.uniformKeys(spark, 150, 150).collect()
    Thread.sleep(300)
    assert(l.vector.toSeq == before)
  }

  test("meta-features from real runs discriminate workloads") {
    val (_, a) = MetricsListener.capture(spark)(HiBenchJobs.wordCount(spark, 0.003).collect())
    val (_, b) = MetricsListener.capture(spark)(HiBenchJobs.kMeans(spark, 0.003, 3, 2).collect())
    assert(a.toSeq != b.toSeq)
  }
}
