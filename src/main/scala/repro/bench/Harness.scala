package repro.bench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.{Executors, TimeUnit, TimeoutException}
import org.apache.spark.sql.SparkSession
import repro.core.{DatalogEngine, UnsupportedProgramException}
import repro.bench.Workloads.Workload
import scala.jdk.CollectionConverters._

/** Benchmark harness: runs (engine, workload) pairs with a wall-clock
  * timeout, classifies outcomes the way the paper's figures do (OOM and
  * timeouts are reported, not crashed on), and measures end-to-end time
  * including result materialization.
  */
object Harness {

  sealed trait Status { def cell: String }
  final case class Ok(
      seconds: Double,
      resultSize: Long,
      /** Process CPU seconds consumed during the run (all engines share the
        * JVM, so this is the engine's own burn). */
      cpuSeconds: Double,
      /** Peak JVM heap during the run, MB: the sum of the heap pools' peaks. */
      peakHeapMb: Long,
  ) extends Status {
    def cell: String = f"$seconds%9.2fs"
    /** CPU utilization relative to `cores` (Table 1 / Figure 16 analog). */
    def utilization(cores: Int): Double = cpuSeconds / math.max(1e-9, seconds * cores)
  }
  case object Unsupported extends Status { def cell: String = "        --" }
  final case class TimedOut(limitSec: Int) extends Status { def cell: String = f"  >${limitSec}%5ds " }
  final case class Oom(msg: String) extends Status { def cell: String = "       OOM" }
  final case class Crashed(msg: String) extends Status { def cell: String = "     ERROR" }

  final case class Result(engine: String, workload: String, status: Status) {
    def seconds: Option[Double] = status match { case ok: Ok => Some(ok.seconds); case _ => None }
  }

  /** One timed evaluation: evaluate + count every IDB (materialization is
    * part of the measured time, as in the paper's end-to-end numbers). The
    * EDB is built before the clock starts.
    */
  def timedRun(engine: DatalogEngine, w: Workload)(implicit spark: SparkSession): Status = {
    val edb = w.edb(spark)
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    heapPools.foreach(_.resetPeakUsage())
    val cpu0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    val out = engine.evaluate(w.program, edb)
    val size = out(w.primaryIdb).count()
    out.foreach { case (p, df) => if (p != w.primaryIdb) df.count() }
    val wall = (System.nanoTime() - t0) / 1e9
    val cpu = (os.getProcessCpuTime - cpu0) / 1e9
    Ok(wall, size, cpu, heapPools.map(_.getPeakUsage.getUsed).sum / (1024 * 1024))
  }

  /** One measured run, without warm-up, under a wall-clock timeout; Spark
    * jobs are cancelled via job groups on timeout.
    */
  def run(engine: DatalogEngine, w: Workload, timeoutSec: Int = 240)(implicit spark: SparkSession): Result = {
    val group = s"bench-${engine.name}-${w.name}"
    val pool = Executors.newSingleThreadExecutor(r => {
      val t = new Thread(r, group); t.setDaemon(true); t
    })
    try {
      val task: java.util.concurrent.Callable[Status] = () => {
        spark.sparkContext.setJobGroup(group, group, interruptOnCancel = true)
        try timedRun(engine, w) finally spark.sparkContext.clearJobGroup()
      }
      val fut = pool.submit(task)
      val status =
        try fut.get(timeoutSec.toLong, TimeUnit.SECONDS)
        catch {
          case _: TimeoutException =>
            spark.sparkContext.cancelJobGroup(group)
            fut.cancel(true)
            TimedOut(timeoutSec)
          case e: java.util.concurrent.ExecutionException =>
            e.getCause match {
              case u: UnsupportedProgramException => Unsupported
              case o: OutOfMemoryError            => Oom(o.getMessage)
              case other                          => Crashed(s"${other.getClass.getSimpleName}: ${other.getMessage}")
            }
        }
      Result(engine.name, w.name, status)
    } finally pool.shutdownNow()
  }
}
