package repro.bench

import java.util.concurrent.{Executors, TimeUnit, TimeoutException}
import org.apache.spark.sql.SparkSession
import repro.core.{DatalogEngine, UnsupportedProgramException}
import repro.bench.Workloads.Workload

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
      cpuSeconds: Double = 0.0,
      /** Peak sampled JVM heap during the run, MB. */
      peakHeapMb: Long = 0L,
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
    val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean]
    @volatile var peakHeap = 0L
    @volatile var sampling = true
    val sampler = new Thread(() => {
      val rt = Runtime.getRuntime
      while (sampling) {
        peakHeap = math.max(peakHeap, rt.totalMemory() - rt.freeMemory())
        try Thread.sleep(50) catch { case _: InterruptedException => sampling = false }
      }
    }, "bench-heap-sampler")
    sampler.setDaemon(true)
    sampler.start()
    val cpu0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    try {
      val out = engine.evaluate(w.program, edb)
      val size = out(w.primaryIdb).count()
      out.foreach { case (p, df) => if (p != w.primaryIdb) df.count() }
      val wall = (System.nanoTime() - t0) / 1e9
      val cpu = (os.getProcessCpuTime - cpu0) / 1e9
      Ok(wall, size, cpu, peakHeap / (1024 * 1024))
    } finally { sampling = false; sampler.interrupt() }
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

  // ------------------------------------------------------------ reporting

  /** Fixed-width matrix printer: rows = workloads, columns = engines. */
  def printMatrix(
      title: String,
      engines: Seq[String],
      rows: Seq[(String, Map[String, Status])],
      out: StringBuilder = new StringBuilder,
  ): String = {
    val w0 = math.max(18, rows.map(_._1.length).maxOption.getOrElse(10) + 2)
    out.append(s"\n=== $title ===\n")
    out.append(" " * w0 + engines.map(e => f"$e%12s").mkString + "\n")
    rows.foreach { case (name, cells) =>
      out.append(name.padTo(w0, ' '))
      engines.foreach { e =>
        out.append(f"${cells.get(e).map(_.cell).getOrElse("          ")}%12s")
      }
      out.append("\n")
    }
    val s = out.toString
    println(s)
    s
  }
}
