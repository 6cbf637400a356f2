package fixbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DatalogEngine, EngineCapabilities, RecStepConf, RecStepEngine}
import repro.datalog.Program

/** Tests of the benchmark itself: the correctness check, the job
  * attribution and the busy/driver-only split.
  */
class BenchSpec extends AnyFunSuite {
  private implicit lazy val spark: SparkSession = Main.session()
  private val csda = Workloads.byName("csda-tiny-delta").get
  private val quiet: String => Unit = _ => ()
  private def farDeadline = System.nanoTime + 600L * 1000000000L

  /** RecStep with one row dropped from every IDB it returns. */
  private object DropOneRow extends DatalogEngine {
    private val inner = new RecStepEngine(RecStepConf.default)
    def name: String = "RecStep minus one row"
    def capabilities: EngineCapabilities = inner.capabilities
    def evaluate(program: Program, edb: Map[String, DataFrame])(implicit spark: SparkSession): Map[String, DataFrame] =
      inner.evaluate(program, edb).map { case (p, df) => p -> df.exceptAll(df.limit(1)) }
  }

  test("the Spark fingerprint of a relation equals the one computed from its tuples") {
    val tuples = Seq(Array(1L, 2L), Array(3L, 4L), Array(-5L, Long.MaxValue), Array(0L, 0L))
    val df = repro.graphs.GraphData.tuplesToDF(spark, tuples.map(_.toVector), 2)
    assert(Fingerprint.of(df) == Fingerprint.of(tuples))
    assert(Fingerprint.of(df.limit(3)) != Fingerprint.of(tuples))
  }

  test("an unperturbed fixpoint passes the check") {
    val out = new Runner(csda, seed = 3, log = quiet).run(seconds = 1, warmupS = 0, trace = false, farDeadline)
    assert(out.correct && out.failed == 0 && out.attempted >= 1)
  }

  test("a perturbed fixpoint is flagged as failed") {
    val out = new Runner(csda, seed = 3, engine = DropOneRow, log = quiet)
      .run(seconds = 1, warmupS = 0, trace = false, farDeadline)
    assert(!out.correct)
    assert(out.attempted >= 1 && out.failed == out.attempted)
    assert(Main.endToEnd(out).isEmpty)
  }

  test("per-category job counts sum to spark.jobs, and busy plus driver-only time is the traced fixpoint time") {
    val runner = new Runner(csda, seed = 3, log = quiet)
    runner.once(traced = false) // warm the session so that every job of the traced run is the engine's
    val op = runner.once(traced = true)
    val v = op.values
    val byCategory = SparkTrace.Categories.map(c => v(s"spark.jobs.$c")).sum
    assert(op.ok)
    assert(v("spark.jobs") > 0 && byCategory == v("spark.jobs"))
    assert(v("spark.jobs.checkpoint") > 0 && v("spark.jobs.count") > 0)
    assert(v("spark.job_busy_s") > 0 && v("spark.driver_only_s") > 0)
    assert(math.abs(v("spark.job_busy_s") + v("spark.driver_only_s") - v("trace.fixpoint_s")) < 1e-9)
    assert(v("trace.fixpoint_s") == v("fixpoint_s"))
  }

  test("job-busy time is the union of job intervals clipped to the traced interval") {
    val jobs = Seq((0L, 1000L), (500L, 1500L), (3000L, 4000L), (9000L, 12000L))
    assert(SparkTrace.busySeconds(jobs, fromMs = 200, toMs = 10000) == (1300 + 1000 + 1000) / 1000.0)
  }

  test("SQL executions are attributed by their action") {
    assert(SparkTrace.categoryOf("localCheckpoint at RecStepEngine.scala:151") == SparkTrace.Checkpoint)
    assert(SparkTrace.categoryOf("count at Runner.scala:120") == SparkTrace.Count)
    assert(SparkTrace.categoryOf("head at RecStepEngine.scala:116") == SparkTrace.Other)
  }
}
