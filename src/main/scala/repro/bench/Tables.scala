package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines.bdd.BddEngine
import repro.baselines.bigdatalog.BigDatalogLite
import repro.baselines.graspan.GraspanLite
import repro.baselines.souffle.SouffleLite
import repro.bench.Harness._
import repro.bench.Workloads._
import repro.datalog.Parser
import repro.graphs.GraphData
import repro.programs.Programs

/** Reproduction of the paper's tables. Each `tableN` method runs the
  * experiment and returns the formatted report (also printed), with the
  * paper's own numbers inlined for diffing — see EXPERIMENTS.md.
  */
object Tables {

  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** One discarded Spark-heavy run so JVM/JIT/shuffle warm-up is not billed
    * to whichever engine happens to go first (the paper likewise discards
    * the first of four runs).
    */
  def warmJvm()(implicit spark: SparkSession): Unit = {
    val tiny = tcOn("warmup", "warmup", 120, 0.02)
    Harness.run(new RecStepEngine(RecStepConf()), tiny, timeoutSec = 120)
    Harness.run(new BigDatalogLite(), tiny, timeoutSec = 120)
    ()
  }

  def recstep: DatalogEngine = new RecStepEngine(RecStepConf.default)
  def engines: Seq[() => DatalogEngine] = Seq(
    () => new GraspanLite(),
    () => new BigDatalogLite(),
    () => new SouffleLite(),
    () => recstep,
  )

  // =========================================================== Table 1 ===

  /** Table 1: system capability/behaviour matrix. The three language rows
    * are *probed* (tiny programs fed to the live engines); CPU utilization
    * and memory are *measured* on a small TC run; the remaining qualitative
    * rows quote the paper (there is nothing to measure for scale-out on one
    * node).
    */
  def table1(quick: Boolean = false)(implicit spark: SparkSession): String = {
    warmJvm()
    val names = Seq("Graspan", "BigDatalog", "Souffle", "RecStep", "BDDBDDB")
    val all: Seq[(String, () => DatalogEngine)] = Seq(
      "Graspan" -> (() => new GraspanLite()),
      "BigDatalog" -> (() => new BigDatalogLite()),
      "Souffle" -> (() => new SouffleLite()),
      "RecStep" -> (() => recstep),
      "BDDBDDB" -> (() => new BddEngine()),
    )

    def probe(mk: () => DatalogEngine, w: Workload): Boolean =
      Harness.run(mk(), w, timeoutSec = 120).status match {
        case _: Ok => true
        case Unsupported => false
        case other => sys.error(s"probe ${w.name} unexpectedly ${other.cell.trim}")
      }

    val tiny = tcOn("G60", "probe", 60, 0.03)
    val tinyCspa = cspaOn("probe", nFuncs = 2, clusterSize = 4).copy(name = "CSPA(probe)")
    val tinyCc = ccOn("probe", "probe", 64)
    val tinyGtc = Workload("GTC(probe)", "probe", Programs.gtc, "gtc",
      s => Map("arc" -> GraphData.toDF(s, GraphData.erdosRenyi(40, 0.04, 1))))

    val sb = new StringBuilder
    sb.append("\n=== Table 1: capability matrix (probed on live engines; paper values in brackets) ===\n")
    val rows = Seq(
      ("Mutual Recursion", tinyCspa, Map("Graspan" -> "yes", "BDDBDDB" -> "yes", "BigDatalog" -> "no", "Souffle" -> "yes", "RecStep" -> "yes")),
      ("Recursive Aggregation", tinyCc, Map("Graspan" -> "no", "BDDBDDB" -> "no", "BigDatalog" -> "yes", "Souffle" -> "no", "RecStep" -> "yes")),
      ("Non-Recursive Aggregation", tinyGtc, Map("Graspan" -> "no", "BDDBDDB" -> "no", "BigDatalog" -> "yes", "Souffle" -> "yes", "RecStep" -> "yes")),
    )
    sb.append(" " * 28 + names.map(n => f"$n%14s").mkString + "\n")
    for ((label, w, paper) <- rows) {
      sb.append(label.padTo(28, ' '))
      for ((n, mk) <- all) {
        val got = if (probe(mk, w)) "yes" else "no"
        val ok = if (got == paper(n)) "" else "!"
        sb.append(f"${s"$got$ok [${paper(n)}]"}%14s")
      }
      sb.append("\n")
    }

    // measured CPU utilization + peak heap on a shared workload
    val meas = if (quick) tcOn("G150", "G20K", 150, 0.02) else tcOn("G400", "G20K", 400, 0.01)
    sb.append("\nMeasured on " + meas.name + s" ($cores cores):\n")
    sb.append(" " * 28 + names.map(n => f"$n%14s").mkString + "\n")
    val results = all.map { case (n, mk) => n -> Harness.run(mk(), meas, timeoutSec = if (quick) 60 else 180).status }
    sb.append("CPU Utilization".padTo(28, ' '))
    results.foreach { case (_, st) => sb.append(f"${st match { case o: Ok => f"${o.utilization(cores) * 100}%.0f%%"; case s => s.cell.trim }}%14s") }
    sb.append("\n")
    sb.append("Peak heap (MB)".padTo(28, ' '))
    results.foreach { case (_, st) => sb.append(f"${st match { case o: Ok => o.peakHeapMb.toString; case s => s.cell.trim }}%14s") }
    sb.append("\n")
    sb.append("Runtime (s)".padTo(28, ' '))
    results.foreach { case (_, st) => sb.append(f"${st match { case o: Ok => f"${o.seconds}%.2f"; case s => s.cell.trim }}%14s") }
    sb.append("\n\nPaper (qualitative): Scale-Up all yes except BDDBDDB; Scale-Out only BigDatalog;\n")
    sb.append("Memory: Graspan/BDDBDDB/RecStep low, Souffle medium, BigDatalog high;\n")
    sb.append("CPU Utilization: RecStep/BigDatalog high, Graspan/Souffle medium, BDDBDDB poor;\n")
    sb.append("Hyperparameter tuning: needed by Graspan (lightweight), BDDBDDB (complex), BigDatalog (moderate); not by Souffle/RecStep.\n")
    val s = sb.toString
    println(s)
    s
  }

  // =========================================================== Table 3 ===

  /** Table 3: the full benchmark matrix — every (program, dataset-family)
    * cell evaluated to fixpoint by RecStep, with runtime and fixpoint size.
    */
  def table3(quick: Boolean = false)(implicit spark: SparkSession): String = {
    warmJvm()
    val ws: Seq[Workload] =
      if (quick) quickTable4
      else {
        tcSweep ++ sgSweep ++
          rmatSweep.map(n => reachOn(s"RMAT-${n / 1024}K", s"RMAT-${n / 1024}M", n)) ++
          Seq(reachOn("orkut-sub", "orkut", orkutN)) ++
          rmatSweep.map(n => ccOn(s"RMAT-${n / 1024}K", s"RMAT-${n / 1024}M", n)) ++
          Seq(ccOn("orkut-sub", "orkut", orkutN)) ++
          rmatSweep.map(n => ssspOn(s"RMAT-${n / 1024}K", s"RMAT-${n / 1024}M", n)) ++
          Seq(ssspOn("orkut-sub", "orkut", orkutN)) ++
          (1 to 7).map(aaOn) ++
          Seq(csdaHttpd, csdaPostgres, csdaLinux, cspaHttpd, cspaPostgres, cspaLinux)
      }
    val sb = new StringBuilder
    sb.append("\n=== Table 3: RecStep across the full program x dataset matrix ===\n")
    sb.append(f"${"workload"}%-22s${"paper dataset"}%-16s${"time"}%12s${"fixpoint size"}%16s\n")
    for (w <- ws) {
      val r = Harness.run(recstep, w, timeoutSec = if (quick) 120 else 600)
      val size = r.status match { case Ok(_, n, _, _) => n.toString; case _ => "-" }
      sb.append(f"${w.name}%-22s${w.paperDataset}%-16s${r.status.cell}%12s$size%16s\n")
      println(sb.toString.linesIterator.toSeq.last)
    }
    val s = sb.toString
    println(s)
    s
  }

  // =========================================================== Table 4 ===

  /** Paper Table 4 values (CPU efficiency, ce = 1/(t·n)). */
  val paperTable4: Map[(String, String), Double] = Map(
    ("TC", "Graspan") -> -1, ("TC", "BigDatalog") -> 2.75e-4, ("TC", "Souffle") -> 2.92e-4, ("TC", "RecStep") -> 1.12e-3,
    ("SG", "Graspan") -> -1, ("SG", "BigDatalog") -> 7.18e-5, ("SG", "Souffle") -> 5.41e-4, ("SG", "RecStep") -> 2.45e-3,
    ("REACH", "Graspan") -> -1, ("REACH", "BigDatalog") -> 1.92e-4, ("REACH", "Souffle") -> 3.52e-4, ("REACH", "RecStep") -> 1.32e-3,
    ("CC", "Graspan") -> -1, ("CC", "BigDatalog") -> 2.17e-4, ("CC", "Souffle") -> -1, ("CC", "RecStep") -> 5.81e-4,
    ("SSSP", "Graspan") -> -1, ("SSSP", "BigDatalog") -> 1.81e-4, ("SSSP", "Souffle") -> -1, ("SSSP", "RecStep") -> 1.00e-3,
    ("AA", "Graspan") -> -1, ("AA", "BigDatalog") -> 2.20e-4, ("AA", "Souffle") -> 5.65e-5, ("AA", "RecStep") -> 7.65e-4,
    ("CSDA", "Graspan") -> 2.22e-6, ("CSDA", "BigDatalog") -> 1.29e-4, ("CSDA", "Souffle") -> 2.05e-4, ("CSDA", "RecStep") -> 5.81e-5,
    ("CSPA", "Graspan") -> 4.56e-5, ("CSPA", "BigDatalog") -> -1, ("CSPA", "Souffle") -> 2.03e-4, ("CSPA", "RecStep") -> 4.10e-4,
  )

  /** Which engines the paper ran per Table 4 row (dash-mask). */
  val table4Mask: Map[String, Set[String]] = Map(
    "TC" -> Set("BigDatalog", "Souffle", "RecStep"),
    "SG" -> Set("BigDatalog", "Souffle", "RecStep"),
    "REACH" -> Set("BigDatalog", "Souffle", "RecStep"),
    "CC" -> Set("BigDatalog", "Souffle", "RecStep"),
    "SSSP" -> Set("BigDatalog", "Souffle", "RecStep"),
    "AA" -> Set("BigDatalog", "Souffle", "RecStep"),
    "CSDA" -> Set("Graspan", "BigDatalog", "Souffle", "RecStep"),
    "CSPA" -> Set("Graspan", "BigDatalog", "Souffle", "RecStep"),
  )

  /** Table 4: CPU efficiency ce = 1/(t·n) of each system on the eight
    * representative workloads. Distributed-BigDatalog (a 15-node cluster)
    * cannot be reproduced on one machine and is omitted (DESIGN.md §3).
    */
  def table4(quick: Boolean = false)(implicit spark: SparkSession): String = {
    warmJvm()
    val ws = if (quick) quickTable4 else Workloads.table4
    val mkEngines: Seq[(String, () => DatalogEngine)] = Seq(
      "Graspan" -> (() => new GraspanLite()),
      "BigDatalog" -> (() => new BigDatalogLite()),
      "Souffle" -> (() => new SouffleLite()),
      "RecStep" -> (() => recstep),
    )
    val sb = new StringBuilder
    sb.append(s"\n=== Table 4: CPU efficiency ce = 1/(t*cores), cores=$cores ===\n")
    val hdr = f"${"workload"}%-22s${"row"}%-10s" + mkEngines.map(e => f"${e._1}%14s").mkString
    sb.append(hdr + "\n")
    for (w <- ws) {
      val key = w.name.takeWhile(_ != '(')
      val cells = mkEngines.map { case (name, mk) =>
        val st: Option[Status] =
          if (!table4Mask.getOrElse(key, Set.empty).contains(name)) None
          else Some(Harness.run(mk(), w, timeoutSec = if (quick) 90 else 420).status)
        name -> st
      }
      sb.append(f"${w.name}%-22s${"measured"}%-10s")
      cells.foreach { case (_, st) =>
        sb.append(f"${st match {
          case Some(ok: Ok) => f"${1.0 / (ok.seconds * cores)}%.2e"
          case Some(other)  => other.cell.trim
          case None         => "-"
        }}%14s")
      }
      sb.append("\n")
      sb.append(f"${""}%-22s${"(time)"}%-10s")
      cells.foreach { case (_, st) =>
        sb.append(f"${st match {
          case Some(ok: Ok) => f"${ok.seconds}%.1fs"
          case _            => ""
        }}%14s")
      }
      sb.append("\n")
      sb.append(f"${""}%-22s${"paper"}%-10s")
      cells.foreach { case (name, _) =>
        sb.append(f"${paperTable4.get((key, name)).filter(_ > 0).map(v => f"$v%.2e").getOrElse("-")}%14s")
      }
      sb.append("\n")
      println(sb.toString.linesIterator.toSeq.takeRight(3).mkString("\n"))
    }
    val s = sb.toString
    println(s)
    s
  }

  // ================================================= Figure 2 (ablation) ===

  /** Figure-2-style ablation: CSPA on the httpd-scale input with each
    * optimization turned off, runtimes as % of RecStep-NO-OP.
    */
  def ablation(quick: Boolean = false)(implicit spark: SparkSession): String = {
    warmJvm()
    val w = if (quick) cspaOn("quick", 6, 8).copy(name = "CSPA(quick)") else cspaHttpd
    val base = RecStepConf() // PBME off: the arms measure the relational path
    val configs: Seq[(String, RecStepConf, String)] = Seq(
      ("RecStep (all opts)", base, "24%"),
      ("UIE off", base.copy(uie = false), "n/a"),
      ("OOF-NA (stale stats)", base.copy(oof = OofMode.NoAnalyze), "63%"),
      ("OOF-FA (full stats)", base.copy(oof = OofMode.FullAnalyze), "41%"),
      ("DSD off (OPSD only)", base.copy(dsd = false), "n/a"),
      ("EOST off (disk commits)", base.copy(eost = false), "n/a"),
      ("FAST-DEDUP off", base.copy(fastDedup = false), "n/a"),
      ("RecStep-NO-OP", RecStepConf.noOp, "100%"),
    )
    val results = configs.map { case (name, conf, paper) =>
      val r = Harness.run(new RecStepEngine(conf), w, timeoutSec = if (quick) 120 else 600)
      (name, r.status, paper)
    }
    val noOpTime = results.collectFirst { case ("RecStep-NO-OP", Ok(s, _, _, _), _) => s }
    val sb = new StringBuilder
    sb.append(s"\n=== Figure 2 ablation on ${w.name}: runtime as % of RecStep-NO-OP ===\n")
    sb.append(f"${"configuration"}%-26s${"time"}%12s${"% of NO-OP"}%12s${"paper"}%8s\n")
    for ((name, st, paper) <- results) {
      val pct = (st, noOpTime) match {
        case (Ok(s, _, _, _), Some(b)) => f"${s / b * 100}%.0f%%"
        case _ => "-"
      }
      sb.append(f"$name%-26s${st.cell}%12s$pct%12s$paper%8s\n")
    }
    val s = sb.toString
    println(s)
    s
  }
}
