package repro.core

import java.nio.file.Files
import org.apache.commons.io.FileUtils
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec

/** The count-returning materialization: the row count observed in the
  * checkpointing job must equal a separate `count()`, including for plans
  * with no partitions or no rows, where an observation that never completes
  * would surface as a timeout.
  */
class MaterializeSpec extends SparkSpec {

  private def frames: Seq[(String, DataFrame)] = Seq(
    "spark.range(0)" -> spark.range(0).toDF("c0"),
    "a filter that yields nothing" -> spark.range(100).toDF("c0").filter(col("c0") < 0),
    "a union of pieces" -> Seq(spark.range(3), spark.range(5, 9), spark.range(0))
      .map(_.toDF("c0")).reduce(_ union _),
    "a multi-partition frame" -> spark.range(0, 10000, 1, 7).toDF("c0"),
    "a shuffled dedup" -> spark.range(1000).select((col("id") % 37).as("c0"))
      .repartition(5, col("c0")).dropDuplicates(),
  )

  private def checkAll(reliable: Boolean): Unit =
    for ((name, df) <- frames) {
      val expected = df.count()
      val (out, rows) = Materialize(df, reliable)
      assert(rows == expected, s"observed count of $name")
      assert(out.count() == expected, s"materialized rows of $name")
    }

  test("materialize counts the rows of its local checkpoint") {
    checkAll(reliable = false)
  }

  test("materialize counts the rows of its reliable checkpoint") {
    val sc = spark.sparkContext
    val dir = Files.createTempDirectory("materialize-ckpt").toFile
    try {
      sc.setCheckpointDir(dir.toString)
      checkAll(reliable = true)
    } finally {
      sc.setCheckpointDir(null)
      FileUtils.deleteDirectory(dir)
    }
  }

  test("a counter inside a plan counts the rows at its position") {
    val r = spark.range(0, 50).toDF("c0")
    for ((inner, hinted) <- Seq(
        spark.range(0, 80, 1, 3).toDF("c0") -> true,
        spark.range(0, 80, 1, 3).toDF("c0") -> false,
        spark.range(0, 30).toDF("c0") -> true, // every row removed by the anti-join
        spark.range(0).toDF("c0") -> true)) {
      val c = new Materialize.Counter(inner)
      val rb = if (hinted) broadcast(r) else r
      val (out, rows) = Materialize(c.observed.join(rb, Seq("c0"), "left_anti"), reliable = false)
      assert(c.rows == inner.count())
      assert(rows == out.count() && rows == inner.except(r).count())
    }
  }
}
