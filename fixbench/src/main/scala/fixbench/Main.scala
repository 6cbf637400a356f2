package fixbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Warms up, measures for `--seconds`, and prints as its last line of
  * standard output one JSON object with the medians of the measured
  * evaluations: the end-to-end metrics, or with `--trace 1` the per-layer
  * metrics of the traced evaluation whose fixpoint time is the median.
  * Progress goes to standard error.
  */
object Main {
  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  /** (name, unit) of the metrics printed without tracing. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "fixpoint_s" -> "s", "cpu_s" -> "s", "peak_heap_mb" -> "MB", "setup_s" -> "s")

  /** (name, unit) of the metrics printed with tracing. */
  val PerLayer: Seq[(String, String)] = Seq(
    "setup.generate_s" -> "s", "setup.load_s" -> "s",
    "datalog.analyze_ms" -> "ms",
    "core.compile_ms" -> "ms",
    "spark.jobs" -> "count", "spark.jobs.checkpoint" -> "count", "spark.jobs.count" -> "count",
    "spark.jobs.broadcast" -> "count", "spark.jobs.other" -> "count", "spark.tasks" -> "count",
    "spark.job_busy_s" -> "s", "spark.driver_only_s" -> "s",
    "spark.codegen_classes" -> "count", "spark.codegen_ms" -> "ms",
    "spark.task_s" -> "s", "spark.task_cpu_s" -> "s",
    "spark.shuffle_write_mb" -> "MB", "spark.shuffle_records_per_row" -> "1/row",
    "pbme.kernel_s" -> "s", "pbme.handoff_s" -> "s", "pbme.result_count_s" -> "s",
    "jvm.jit_ms" -> "ms", "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count",
    "trace.fixpoint_s" -> "s", "trace.overhead_pct" -> "%",
    "host.steal_s" -> "s",
  )

  /** Whole-process budget: results must be out well before 180 s. */
  private val BudgetS = 165.0

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"fixbench: $msg")
        Console.err.println("usage: Main --workload <" + Workloads.all.map(_.name).mkString("|") +
          "> --seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val startNs = System.nanoTime - ManagementFactory.getRuntimeMXBean.getUptime * 1000000L
    implicit val spark: SparkSession = session()
    val outcome = new Runner(args.workload, args.seed)
      .run(args.seconds, warmupS = args.seconds / 3.0, args.trace, deadlineNs = startNs + (BudgetS * 1e9).toLong)
    val metrics = if (args.trace) perLayer(outcome) else endToEnd(outcome)
    Console.err.println(report(args, outcome, metrics))
    if (metrics.isEmpty) {
      Console.err.println("fixbench: no evaluation succeeded")
      sys.exit(1)
    }
    println(json(outcome, metrics))
    Console.out.flush()
    // Spark's shutdown hook stops the session, also when a timed-out
    // evaluation is still running.
    sys.exit(0)
  }

  def parse(args: List[String], got: Map[String, String] = Map.empty): Either[String, Args] = args match {
    case flag :: value :: rest if flag.startsWith("--") => parse(rest, got.updated(flag.drop(2), value))
    case Nil =>
      def need(k: String) = got.get(k).toRight(s"missing --$k")
      for {
        w <- need("workload")
        workload <- Workloads.byName(w).toRight(s"unknown workload '$w'")
        seed <- need("seed").flatMap(_.toLongOption.toRight("--seed must be an integer"))
        seconds <- need("seconds").flatMap(_.toIntOption.filter(_ > 0).toRight("--seconds must be a positive integer"))
        trace <- need("trace").flatMap {
          case "0" => Right(false); case "1" => Right(true); case _ => Left("--trace must be 0 or 1")
        }
      } yield Args(workload, seed, seconds, trace)
    case other => Left(s"cannot parse arguments: ${other.mkString(" ")}")
  }

  /** Local Spark with as many threads as the JVM sees processors and an
    * explicit shuffle width, so that runs on one machine are comparable.
    * Spark's generated-code cache is raised from its default of 100 classes:
    * one CSDA evaluation alone needs more, and which classes the small cache
    * evicts depends on thread timing, which moved `fixpoint_s` by about 10 %
    * between otherwise identical processes.
    */
  def session(): SparkSession = SparkSession.builder
    .master("local[*]")
    .appName("fixbench")
    .config("spark.sql.shuffle.partitions", 8)
    .config("spark.sql.codegen.cache.maxEntries", 10000)
    .config("spark.ui.enabled", value = false)
    .getOrCreate()

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def endToEnd(o: Outcome): Seq[(String, Double, String)] =
    if (o.succeeded.isEmpty) Seq.empty
    else EndToEnd.map { case (m, unit) => (m, median(o.succeeded.map(_.values(m))), unit) }

  /** Every per-layer metric of the traced evaluation with the median fixpoint
    * time (so the parts of one evaluation add up), plus the tracing overhead
    * as the traced against the untraced median fixpoint time.
    */
  def perLayer(o: Outcome): Seq[(String, Double, String)] = {
    val (traced, plain) = o.succeeded.partition(_.traced)
    if (traced.isEmpty || plain.isEmpty) return Seq.empty
    val mid = traced.sortBy(_.values("fixpoint_s")).apply((traced.size - 1) / 2)
    val overhead = (median(traced.map(_.values("fixpoint_s"))) / median(plain.map(_.values("fixpoint_s"))) - 1) * 100
    val values = mid.values + ("trace.overhead_pct" -> overhead)
    PerLayer.map { case (m, unit) => (m, values(m), unit) }
  }

  def json(o: Outcome, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (m, v, unit) => s""""$m": {"value": ${num(v)}, "unit": "$unit"}""" }
    s"""{"correct": ${o.correct}, "attempted": ${o.attempted}, "failed": ${o.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.math.BigDecimal.valueOf(v).toPlainString

  def report(a: Args, o: Outcome, metrics: Seq[(String, Double, String)]): String = {
    val head = s"[fixbench] ${a.workload.name} seed ${a.seed}: ${o.attempted} attempted, ${o.failed} failed, " +
      s"${o.succeeded.size} measured, correct=${o.correct}"
    (head +: metrics.map { case (m, v, unit) => f"  $m%-32s $v%14.4f $unit" }).mkString("\n")
  }
}
