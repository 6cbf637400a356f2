package repro.bench

import java.util.concurrent.TimeUnit
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.baselines.souffle.SouffleLite
import repro.bench.Harness._
import repro.bench.Workloads._
import repro.core.{DatalogEngine, EngineCapabilities, RecStepConf, RecStepEngine, UnsupportedProgramException}
import repro.datalog.Program
import repro.programs.Programs
import scala.jdk.CollectionConverters._

class HarnessSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  private val tinyTc = tcOn("G40", "probe", 40, 0.05)

  test("timedRun returns Ok with size, cpu and heap metrics") {
    val st = Harness.timedRun(new RecStepEngine(RecStepConf.default), tinyTc)
    st match {
      case ok: Ok =>
        assert(ok.resultSize > 0)
        assert(ok.seconds > 0)
        assert(ok.cpuSeconds > 0)
        assert(ok.peakHeapMb > 0)
        assert(ok.utilization(16) > 0 && ok.utilization(16) <= 1.5)
      case other => fail(s"unexpected status $other")
    }
  }

  test("timedRun builds the EDB before the clock starts") {
    val slowEdb = tinyTc.copy(edb = spark => { Thread.sleep(1000); tinyTc.edb(spark) })
    Harness.timedRun(new SouffleLite(), slowEdb) match {
      case ok: Ok => assert(ok.seconds < 1.0, s"${ok.seconds} s include the EDB's 1 s build")
      case other  => fail(s"unexpected status $other")
    }
  }

  test("unsupported programs are classified, not crashed") {
    val cc = ccOn("probe", "probe", 32)
    val r = Harness.run(new SouffleLite(), cc, timeoutSec = 60)
    assert(r.status == Unsupported)
  }

  test("timeouts are enforced and classified") {
    val sleeper = new DatalogEngine {
      def name = "sleeper"
      def capabilities: EngineCapabilities = EngineCapabilities(true, true, true, true)
      def evaluate(p: Program, edb: Map[String, DataFrame])(implicit spark: SparkSession): Map[String, DataFrame] = {
        Thread.sleep(10000); Map.empty
      }
    }
    val t0 = System.nanoTime()
    val r = Harness.run(sleeper, tinyTc, timeoutSec = 1)
    val elapsed = (System.nanoTime() - t0) / 1e9
    assert(r.status == TimedOut(1))
    assert(elapsed < 8, s"timeout took ${elapsed}s to trigger")
  }

  test("a timeout stops an in-memory baseline's work") {
    // Souffle-lite takes tens of seconds on CSPA(20,12); it is stopped after 2.
    val engine = new SouffleLite()
    val w = cspaOn("t", 20, 12)
    assert(Harness.run(engine, w, timeoutSec = 2).status == TimedOut(2))
    val group = s"bench-${engine.name}-${w.name}"
    def working: Seq[String] = Thread.getAllStackTraces.asScala.collect {
      case (t, frames) if t.getName == group || frames.exists(_.getClassName.startsWith("repro.baselines.souffle")) =>
        t.getName
    }.toSeq
    val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(5)
    while (working.nonEmpty && System.nanoTime() < deadline) Thread.sleep(20)
    assert(working.isEmpty, s"still running 5 s after the timeout: ${working.mkString(", ")}")
  }

  test("crashes are classified with the cause") {
    val bomb = new DatalogEngine {
      def name = "bomb"
      def capabilities: EngineCapabilities = EngineCapabilities(true, true, true, true)
      def evaluate(p: Program, edb: Map[String, DataFrame])(implicit spark: SparkSession): Map[String, DataFrame] =
        throw new IllegalStateException("boom")
    }
    Harness.run(bomb, tinyTc, timeoutSec = 10).status match {
      case Crashed(msg) => assert(msg.contains("boom"))
      case other        => fail(s"unexpected $other")
    }
  }

  test("workload builders expose the benchmark EDBs") {
    assert(tinyTc.edb(spark).keySet == Set("arc"))
    assert(reachOn("t", "p", 64).edb(spark).keySet == Set("arc", "id"))
    assert(ssspOn("t", "p", 64).edb(spark)("arc").columns.length == 3)
    assert(aaOn(1).edb(spark).keySet == Set("addressOf", "assign", "load", "store"))
    assert(cspaOn("t", 2, 4).edb(spark).keySet == Set("assign", "dereference"))
    assert(csdaOn("t", 2).edb(spark).keySet == Set("nullEdge", "arc"))
  }

  test("table4 workload set covers the paper's eight representatives") {
    val keys = Workloads.table4.map(_.name.takeWhile(_ != '('))
    assert(keys == Seq("TC", "SG", "REACH", "CC", "SSSP", "AA", "CSDA", "CSPA"))
  }

  test("paper Table 4 values and dash mask are consistent") {
    for (((wk, eng), v) <- Tables.paperTable4 if v > 0)
      assert(Tables.table4Mask(wk).contains(eng), s"$wk/$eng has a paper value but is masked out")
    for ((wk, engines) <- Tables.table4Mask; e <- engines)
      assert(Tables.paperTable4.contains((wk, e)), s"$wk/$e in mask but no paper entry")
  }
}
