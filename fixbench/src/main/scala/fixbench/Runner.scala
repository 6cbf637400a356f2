package fixbench

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.fixbench.ListenerBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DatalogEngine, PlanGenerator, RecStepConf, RecStepEngine}
import repro.datalog.{Analyzer, Parser}
import repro.graphs.GraphData
import repro.pbme.{Pbme, PbmeMatcher}

/** One evaluation: `ok` is false when the fixpoint differed from the
  * reference; `values` holds every metric the evaluation measured.
  */
final case class Op(traced: Boolean, ok: Boolean, values: Map[String, Double])

/** Outcome of a warm-up plus a measured window. `wrong` counts fixpoints
  * that differed from the reference, in warm-up too.
  */
final case class Outcome(attempted: Int, failed: Int, wrong: Int, ops: Seq[Op]) {
  def succeeded: Seq[Op] = ops.filter(_.ok)
  def correct: Boolean = wrong == 0 && succeeded.nonEmpty
}

/** Runs evaluations of one workload at one seed, each timed from outside the
  * engine: the EDB is generated and pinned first, then the clock covers
  * `evaluate` plus a `count()` of every returned IDB.
  */
final class Runner(
    workload: Workload,
    seed: Long,
    engine: DatalogEngine = new RecStepEngine(RecStepConf.default),
    log: String => Unit = Console.err.println,
)(implicit spark: SparkSession) {
  import Runner._
  private val sc = spark.sparkContext

  /** The reference fixpoint, computed once and outside every timed region. */
  val expected: Map[String, Fingerprint] = {
    val t0 = System.nanoTime
    val ref = workload.reference(workload.generate(seed))
    log(f"[fixbench] ${workload.name} seed $seed: reference in ${(System.nanoTime - t0) / 1e9}%.2f s: " +
      ref.toSeq.sortBy(_._1).map { case (p, f) => s"$p ${f.rows}" }.mkString(", "))
    ref
  }

  /** PBME's matcher accepts the program: the traced run then also times the
    * bit-matrix kernel on its own.
    */
  private val pbmeShape = PbmeMatcher.matchProgram(Analyzer.analyze(workload.program))

  /** Warm up for at least `warmupS` seconds, then measure for `seconds`.
    * Traced runs alternate untraced and traced evaluations so that the
    * tracing overhead is measured in the same process.
    */
  def run(seconds: Double, warmupS: Double, trace: Boolean, deadlineNs: Long): Outcome = {
    val pool = Executors.newSingleThreadExecutor { r =>
      val t = new Thread(r, "fixbench-op"); t.setDaemon(true); t
    }
    var wrong = 0
    var broken = false
    /** One evaluation under a timeout; None when it threw or timed out. */
    def attempt(traced: Boolean): Option[Op] = {
      val left = (deadlineNs - System.nanoTime) / 1e9
      val future = pool.submit(new Callable[Op] { def call(): Op = once(traced) })
      try {
        val op = future.get(math.max(1L, math.min(OpTimeoutS, left.toLong)), TimeUnit.SECONDS)
        if (!op.ok) wrong += 1
        val v = op.values
        log(f"[fixbench]   ${if (traced) "traced " else ""}fixpoint ${v("fixpoint_s")}%.3f s, cpu ${v("cpu_s")}%.3f s, " +
          f"heap ${v("peak_heap_mb")}%.0f MB, setup ${v("setup_s")}%.3f s, jit ${v("jvm.jit_ms")}%.0f ms, " +
          f"codegen ${v("spark.codegen_classes")}%.0f, gc ${v("jvm.gc_ms")}%.0f ms, steal ${v("host.steal_s")}%.2f s${if (op.ok) "" else ", WRONG"}")
        Some(op)
      } catch {
        case _: TimeoutException =>
          log("[fixbench] evaluation timed out")
          sc.cancelAllJobs(); future.cancel(true); broken = true
          None
        case e: ExecutionException =>
          log(s"[fixbench] evaluation failed: ${e.getCause}")
          None
      }
    }
    try {
      val w0 = System.nanoTime
      var warm = 0
      while (!broken && (warm < MinWarmupOps || (System.nanoTime - w0) / 1e9 < warmupS)) {
        attempt(traced = trace && warm % 2 == 1); warm += 1
      }
      log(f"[fixbench] warm-up: $warm evaluations in ${(System.nanoTime - w0) / 1e9}%.1f s")
      val m0 = System.nanoTime
      val minOps = if (trace) 2 else 1
      var attempted = 0
      val ops = Seq.newBuilder[Op]
      var failed = 0
      while (!broken && (attempted < minOps || (System.nanoTime - m0) / 1e9 < seconds)) {
        val res = attempt(traced = trace && attempted % 2 == 1)
        attempted += 1
        res.foreach(ops += _)
        if (!res.exists(_.ok)) failed += 1
      }
      Outcome(attempted, failed, wrong, ops.result())
    } finally pool.shutdownNow()
  }

  /** One evaluation, from input generation to releasing every cached block. */
  def once(traced: Boolean): Op = {
    val g0 = System.nanoTime
    val tuples = workload.generate(seed)
    val g1 = System.nanoTime
    val edb = tuples.map { case (p, ts) =>
      p -> GraphData.tuplesToDF(spark, ts.map(_.toVector), workload.arities(p)).cache()
    }
    edb.values.foreach(_.count())
    val g2 = System.nanoTime
    val listener = if (traced) Some(new SparkTrace) else None
    try {
      System.gc()
      Thread.sleep(SettleMs) // let Spark's cleaner drop what the last evaluation left
      listener.foreach(sc.addSparkListener)
      Jvm.resetHeapPeak()
      val before = Jvm.sample()
      val wall0 = System.currentTimeMillis()
      val t0 = System.nanoTime
      val out = engine.evaluate(workload.program, edb)
      val t1 = System.nanoTime
      val rows = out.valuesIterator.map(_.count()).sum
      val t2 = System.nanoTime
      val wall2 = System.currentTimeMillis()
      val jvm = Jvm.sample() - before
      val heapMb = Jvm.heapPeakBytes() / 1048576.0
      val counts = listener.map { l => ListenerBus.drain(sc); l.counts(wall0, wall2) }
      listener.foreach(sc.removeSparkListener)
      val ok = matches(out)

      val fixpointS = (t2 - t0) / 1e9
      val base = Map(
        "fixpoint_s" -> fixpointS,
        "cpu_s" -> jvm.cpuNs / 1e9,
        "peak_heap_mb" -> heapMb,
        "setup_s" -> (g2 - g0) / 1e9,
        "setup.generate_s" -> (g1 - g0) / 1e9,
        "setup.load_s" -> (g2 - g1) / 1e9,
        "jvm.jit_ms" -> jvm.jitMs.toDouble,
        "jvm.gc_ms" -> jvm.gcMs.toDouble,
        "jvm.gc_count" -> jvm.gcCount.toDouble,
        "spark.codegen_classes" -> jvm.codegenClasses.toDouble,
        "spark.codegen_ms" -> jvm.codegenNs / 1e6,
        "host.steal_s" -> jvm.stealTicks / 100.0,
      )
      val layers = counts.fold(Map.empty[String, Double]) { c =>
        Map(
          "trace.fixpoint_s" -> fixpointS,
          "spark.jobs" -> c.jobs.toDouble,
          "spark.tasks" -> c.tasks.toDouble,
          "spark.job_busy_s" -> c.jobBusyS,
          "spark.driver_only_s" -> (fixpointS - c.jobBusyS),
          "spark.task_s" -> c.taskS,
          "spark.task_cpu_s" -> c.taskCpuS,
          "spark.shuffle_write_mb" -> c.shuffleWriteBytes / 1048576.0,
          "spark.shuffle_records_per_row" -> c.shuffleWriteRecords.toDouble / math.max(1L, rows),
          "datalog.analyze_ms" -> analyzeMs(),
          "core.compile_ms" -> compileMs(edb, out),
        ) ++ c.jobsByCategory.map { case (k, n) => s"spark.jobs.$k" -> n.toDouble } ++
          pbmeProbe(tuples, evaluateS = (t1 - t0) / 1e9, countS = (t2 - t1) / 1e9)
      }
      Op(traced, ok, base ++ layers)
    } finally {
      listener.foreach(sc.removeSparkListener)
      spark.catalog.clearCache()
      sc.getPersistentRDDs.valuesIterator.foreach(_.unpersist(blocking = true))
    }
  }

  /** Whether every IDB of `out` has the reference's fingerprint. */
  def matches(out: Map[String, DataFrame]): Boolean =
    out.keySet == expected.keySet && expected.forall { case (p, want) =>
      val got = Fingerprint.of(out(p))
      if (got != want) log(s"[fixbench] WRONG FIXPOINT for $p: got $got, expected $want")
      got == want
    }

  /** Mean time of `Parser.parse` + `Analyzer.analyze` on the program. */
  private def analyzeMs(): Double = {
    val t0 = System.nanoTime
    for (_ <- 1 to ProbeReps) Analyzer.analyze(Parser.parse(workload.source))
    (System.nanoTime - t0) / 1e6 / ProbeReps
  }

  /** Mean time to compile every rule over the full relations and plan it
    * physically: the work the engine repeats for each iteration's queries.
    */
  private def compileMs(edb: Map[String, DataFrame], idb: Map[String, DataFrame]): Double = {
    val resolve: PlanGenerator.Resolver = (atom, _) => edb.getOrElse(atom.pred, idb(atom.pred))
    val t0 = System.nanoTime
    for (_ <- 1 to ProbeReps; rule <- workload.program.rules)
      PlanGenerator.compileRule(rule, resolve).queryExecution.executedPlan
    (System.nanoTime - t0) / 1e6 / ProbeReps
  }

  /** PBME's split: the bit-matrix kernel alone on the same arcs, the rest of
    * `evaluate` (collecting arcs, building rows, creating the DataFrame),
    * and counting the returned DataFrame. Zero when PBME does not apply.
    */
  private def pbmeProbe(tuples: Edb.Tuples, evaluateS: Double, countS: Double): Map[String, Double] = {
    val kernelS = pbmeShape.fold(0.0) { shape =>
      val arcs = tuples(shape.edb).map(t => (t(0), t(1)))
      val n = arcs.iterator.map(e => math.max(e._1, e._2)).maxOption.getOrElse(0L)
      if (n > RecStepConf.default.pbmeMaxVertices) 0.0
      else {
        val t0 = System.nanoTime
        shape match {
          case _: PbmeMatcher.TcShape => Pbme.tc(arcs, n.toInt)
          case _: PbmeMatcher.SgShape => Pbme.sg(arcs, n.toInt)
        }
        (System.nanoTime - t0) / 1e9
      }
    }
    if (kernelS == 0.0) Map("pbme.kernel_s" -> 0.0, "pbme.handoff_s" -> 0.0, "pbme.result_count_s" -> 0.0)
    else Map("pbme.kernel_s" -> kernelS, "pbme.handoff_s" -> (evaluateS - kernelS), "pbme.result_count_s" -> countS)
  }
}

object Runner {
  private val OpTimeoutS = 60L
  private val MinWarmupOps = 2
  private val SettleMs = 200L
  private val ProbeReps = 5
}
