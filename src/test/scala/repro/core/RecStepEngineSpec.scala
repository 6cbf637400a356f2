package repro.core

import java.util.concurrent.{ConcurrentHashMap, TimeUnit}
import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil._
import repro.datalog.Parser
import repro.graphs.GraphData
import repro.programs.Programs

class RecStepEngineSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  private val relConf = RecStepConf() // all opts on, PBME off (relational path)
  /** Keeps every iteration on Spark: the driver tier needs all five switches. */
  private val uieOff = relConf.copy(uie = false)
  private def engine(conf: RecStepConf = relConf) = new RecStepEngine(conf)

  private def run(eng: DatalogEngine, p: repro.datalog.Program,
                  edb: Map[String, Set[Vector[Long]]]): Map[String, Set[Vector[Long]]] =
    TestUtil.runEngine(eng, p, edb)(spark)

  private val edges1 = TestUtil.randomEdges(25, 60, seed = 1)
  private val edges2 = TestUtil.randomEdges(40, 70, seed = 2)

  // ---------------------------------------------------------------- TC

  test("TC matches the DuckDB recursive-CTE oracle") {
    val arc = edgesDF(spark, edges1.toSeq)
    val out = engine().evaluate(Programs.tc, Map("arc" -> arc))
    Oracle.assertEquivalent(out("tc"),
      """WITH RECURSIVE tc(c0, c1) AS (
        |  SELECT c0, c1 FROM arc
        |  UNION
        |  SELECT tc.c0, arc.c1 FROM tc JOIN arc ON tc.c1 = arc.c0
        |) SELECT c0, c1 FROM tc""".stripMargin,
      "arc" -> arc)
  }

  test("TC on a cycle matches the reference") {
    assertMatchesReference(engine(), Programs.tcSource,
      Map("arc" -> edgesToTuples(Set((1L, 2L), (2L, 3L), (3L, 1L)))))
  }

  test("TC on an empty graph") {
    val out = engine().evaluate(Programs.tc, Map("arc" -> edgesDF(spark, Seq.empty)))
    assert(out("tc").count() == 0)
  }

  test("every optimization configuration computes the same TC fixpoint") {
    val edb = Map("arc" -> edgesToTuples(edges1))
    val expected = reference(Programs.tc, edb)("tc")
    val configs = Seq(
      "default"   -> relConf,
      "noOp"      -> RecStepConf.noOp,
      "no-uie"    -> relConf.copy(uie = false),
      "oof-na"    -> relConf.copy(oof = OofMode.NoAnalyze),
      "oof-fa"    -> relConf.copy(oof = OofMode.FullAnalyze),
      "dsd-off"   -> relConf.copy(dsd = false),
      "no-eost"   -> relConf.copy(eost = false),
      "no-fdedup" -> relConf.copy(fastDedup = false),
      "pbme"      -> relConf.copy(pbme = true),
    )
    for ((name, conf) <- configs) {
      val got = run(engine(conf), Programs.tc, edb)("tc")
      assert(got == expected, s"config '$name' diverged")
    }
  }

  // ---------------------------------------------------------------- SG

  test("SG matches the DuckDB recursive-CTE oracle") {
    val arc = edgesDF(spark, GraphData.tree(14) ++ Seq((3L, 9L)))
    val out = engine().evaluate(Programs.sg, Map("arc" -> arc))
    Oracle.assertEquivalent(out("sg"),
      """WITH RECURSIVE sg(c0, c1) AS (
        |  SELECT a1.c1, a2.c1 FROM arc a1 JOIN arc a2 ON a1.c0 = a2.c0 WHERE a1.c1 <> a2.c1
        |  UNION
        |  SELECT a1.c1, a2.c1 FROM arc a1 JOIN sg ON a1.c0 = sg.c0
        |                      JOIN arc a2 ON a2.c0 = sg.c1
        |) SELECT c0, c1 FROM sg""".stripMargin,
      "arc" -> arc)
  }

  test("SG with PBME enabled matches the relational path") {
    val edb = Map("arc" -> edgesToTuples(TestUtil.randomEdges(15, 25, seed = 3)))
    val rel = run(engine(), Programs.sg, edb)("sg")
    val viaPbme = run(engine(relConf.copy(pbme = true)), Programs.sg, edb)("sg")
    assert(viaPbme == rel)
  }

  // ------------------------------------------------------------- REACH

  test("REACH matches the reference") {
    assertMatchesReference(engine(), Programs.reachSource,
      Map("arc" -> edgesToTuples(edges2), "id" -> Set(Vector(1L))))
  }

  test("REACH with unreachable vertices") {
    val edb = Map(
      "arc" -> edgesToTuples(Set((1L, 2L), (3L, 4L))),
      "id" -> Set(Vector(1L)))
    val got = run(engine(), Programs.reach, edb)("reach")
    assert(got == Set(Vector(1L), Vector(2L)))
  }

  // ----------------------------------------------------- CC and SSSP (agg)

  test("CC matches the label-propagation reference") {
    val edb = Map("arc" -> edgesToTuples(edges2))
    assertMatchesReference(engine(), Programs.ccSource, edb)
  }

  test("CC labels each strongly-reachable region by its minimum") {
    // undirected-style graph given as both directions
    val und = Set((1L, 2L), (2L, 1L), (2L, 3L), (3L, 2L), (7L, 8L), (8L, 7L))
    val got = run(engine(), Programs.cc, Map("arc" -> edgesToTuples(und)))
    assert(got("cc") == Set(Vector(1L), Vector(7L)))
    val labels = TestUtil.ccLabels(und)
    assert(got("cc3") == labels.map { case (v, l) => Vector(v, l) }.toSet)
  }

  test("SSSP matches Dijkstra") {
    val wEdges = GraphData.weighted(TestUtil.randomEdges(20, 50, seed = 4).toVector, maxW = 9, seed = 5)
    val edb = Map(
      "arc" -> wEdges.map(e => Vector(e._1, e._2, e._3)).toSet,
      "id" -> Set(Vector(1L)))
    val got = run(engine(), Programs.sssp, edb)("sssp")
    val expected = TestUtil.dijkstra(wEdges, Set(1L)).map { case (v, d) => Vector(v, d) }.toSet
    assert(got == expected)
  }

  test("SSSP with all optimizations off matches too") {
    val wEdges = GraphData.weighted(GraphData.chain(12), maxW = 5, seed = 6)
    val edb = Map(
      "arc" -> wEdges.map(e => Vector(e._1, e._2, e._3)).toSet,
      "id" -> Set(Vector(1L)))
    val a = run(engine(), Programs.sssp, edb)("sssp")
    val b = run(engine(RecStepConf.noOp), Programs.sssp, edb)("sssp")
    assert(a == b)
    assert(a == TestUtil.dijkstra(wEdges, Set(1L)).map { case (v, d) => Vector(v, d) }.toSet)
  }

  // ----------------------------------------------------- program analysis

  test("Andersen matches the reference") {
    val in = GraphData.andersenInput(1)
    assertMatchesReference(engine(), Programs.andersenSource,
      in.asMap.map { case (k, v) => k -> edgesToTuples(v.toSet) })
  }

  test("CSPA matches the reference (mutual recursion)") {
    val in = GraphData.cspaInput(nFuncs = 3, clusterSize = 5)
    assertMatchesReference(engine(), Programs.cspaSource,
      Map("assign" -> edgesToTuples(in.assign.toSet),
          "dereference" -> edgesToTuples(in.dereference.toSet)))
  }

  test("CSDA matches the reference (many iterations)") {
    val in = GraphData.csdaInput(segments = 4, segLen = 3)
    assertMatchesReference(engine(), Programs.csdaSource,
      Map("nullEdge" -> edgesToTuples(in.nullEdge.toSet),
          "arc" -> edgesToTuples(in.arc.toSet)))
  }

  // ------------------------------------------------- negation, aggregation

  test("NTC (stratified negation) matches the DuckDB oracle") {
    val arc = edgesDF(spark, Seq((1L, 2L), (2L, 3L)))
    val out = engine().evaluate(Programs.ntc, Map("arc" -> arc))
    Oracle.assertEquivalent(out("ntc"),
      """WITH RECURSIVE tc(c0, c1) AS (
        |  SELECT c0, c1 FROM arc
        |  UNION
        |  SELECT tc.c0, arc.c1 FROM tc JOIN arc ON tc.c1 = arc.c0
        |), node(c0) AS (
        |  SELECT DISTINCT c0 FROM (SELECT c0 FROM arc UNION ALL SELECT c1 AS c0 FROM arc)
        |)
        |SELECT n1.c0 AS c0, n2.c0 AS c1 FROM node n1, node n2
        |WHERE NOT EXISTS (SELECT 1 FROM tc WHERE tc.c0 = n1.c0 AND tc.c1 = n2.c0)""".stripMargin,
      "arc" -> arc)
  }

  test("GTC (non-recursive COUNT) matches the reference") {
    assertMatchesReference(engine(), Programs.gtcSource,
      Map("arc" -> edgesToTuples(Set((1L, 2L), (2L, 3L), (3L, 4L)))))
  }

  test("fact rules seed recursion") {
    assertMatchesReference(engine(),
      "e(1,2). e(2,3). t(x,y) :- e(x,y). t(x,y) :- t(x,z), e(z,y).",
      Map.empty)
  }

  test("missing EDB relation raises a clear error") {
    val ex = intercept[IllegalArgumentException](
      engine().evaluate(Programs.tc, Map.empty))
    assert(ex.getMessage.contains("arc"))
  }

  test("a stratum hitting maxIterations fails, naming its predicates and the cap") {
    val chain = Map("arc" -> edgesToTuples(GraphData.chain(10).toSet))
    val conf = relConf.copy(maxIterations = 2, pbme = false)
    val tc = intercept[IterationLimitException](run(engine(conf), Programs.tc, chain))
    assert(tc.preds == Seq("tc") && tc.limit == 2)
    assert(tc.getMessage.contains("{tc}") && tc.getMessage.contains("within 2 iterations"))
    // the recursive MIN loop (CC's label propagation) is capped the same way
    val cc = intercept[IterationLimitException](run(engine(conf), Programs.cc, chain))
    assert(cc.preds == Seq("cc3") && cc.limit == 2)
  }

  test("EOST off leaves the checkpoint dir as it found it and deletes its own") {
    val sc = spark.sparkContext
    val tmp = new java.io.File(System.getProperty("java.io.tmpdir"))
    def ckptDirs() = tmp.listFiles().map(_.getName).filter(_.startsWith("recstep-ckpt")).toSet
    val edb = Map("arc" -> edgesToTuples(edges1))
    val expected = reference(Programs.tc, edb)("tc")
    val conf = relConf.copy(eost = false)
    val before = sc.getCheckpointDir
    val dirsBefore = ckptDirs()
    assert(run(engine(conf), Programs.tc, edb)("tc") == expected)
    assert(sc.getCheckpointDir == before)
    assert(ckptDirs() == dirsBefore)
    // a checkpoint dir the caller set is used and left in place
    val callerDir = java.nio.file.Files.createTempDirectory("caller-ckpt").toFile
    try {
      sc.setCheckpointDir(callerDir.toString)
      val set = sc.getCheckpointDir
      assert(run(engine(conf), Programs.tc, edb)("tc") == expected)
      assert(sc.getCheckpointDir == set && new java.io.File(set.get.stripPrefix("file:")).exists())
    } finally {
      sc.setCheckpointDir(null)
      org.apache.commons.io.FileUtils.deleteDirectory(callerDir)
    }
  }

  test("capabilities cover the full language") {
    val c = engine().capabilities
    assert(c.mutualRecursion && c.nonRecursiveAggregation && c.recursiveAggregation && c.negation)
  }

  test("deep chain exercises many iterations and compaction") {
    // 59 iterations with one new fact each: the union of delta pieces is
    // compacted twice at the engine's period of 24. UIE off keeps every
    // iteration on Spark; all on, the driver tier would run them.
    val edb = Map(
      "arc" -> edgesToTuples(GraphData.chain(60).toSet),
      "nullEdge" -> Set(Vector(1L, 2L)))
    val got = run(engine(uieOff), Programs.csda, edb)
    val expected = reference(Programs.csda, edb)
    assert(got("null") == expected("null"))
  }

  /** Runs `body` and counts the Spark jobs it starts: (result, non-broadcast
    * jobs, broadcast jobs).
    */
  private def countingJobs[A](body: => A): (A, Int, Int) = {
    val sc = spark.sparkContext
    val Marker = "job-count-marker"
    val jobs = new SparkListener {
      @volatile var plain, broadcasts = 0
      @volatile var sawMarker = false
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k))).getOrElse("")
        if (prop("spark.job.description") == Marker) sawMarker = true
        else if (Seq("spark.job.description", "spark.job.tags").exists(k => prop(k).contains("broadcast exchange")))
          broadcasts += 1
        else plain += 1
      }
    }
    sc.addSparkListener(jobs)
    try {
      val out = body
      // Listener events arrive in order: once the marker job is seen, every
      // job of `body` has been counted.
      sc.setJobDescription(Marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!jobs.sawMarker && System.nanoTime() < deadline) Thread.sleep(10)
      assert(jobs.sawMarker, "listener events did not arrive")
      (out, jobs.plain, jobs.broadcasts)
    } finally sc.removeSparkListener(jobs)
  }

  test("a one-tuple Δ costs at most two Spark jobs per iteration, broadcasts aside") {
    // CSDA over a chain: iteration k derives only null(1, k+1), so n
    // iterations (the last finds nothing new). UIE off keeps them on Spark:
    // each is the subquery's materialization and the set merge step's.
    val n = 20
    val edb = edbToDF(spark, Map(
      "arc" -> edgesToTuples(GraphData.chain(n).toSet),
      "nullEdge" -> Set(Vector(1L, 2L))))
    val (out, plain, broadcasts) = countingJobs(engine(uieOff).evaluate(Programs.csda, edb))
    info(s"$plain non-broadcast and $broadcasts broadcast jobs for $n iterations")
    assert(plain <= 2 * n + 8, s"$plain non-broadcast jobs (and $broadcasts broadcasts) for $n iterations")
    assert(dfToSet(out("null")) == (2L to n.toLong).map(v => Vector(1L, v)).toSet)
  }

  test("forced OPSD dedups a one-tuple Δ without an exchange") {
    // CSDA over a chain, as above, with DSD off, which forces OPSD: each
    // iteration's dedup inserts into a key set opened for that iteration, so
    // its set merge step is one job with no shuffle stage; generic dedup's
    // exchange would add a second job per iteration.
    val n = 20
    val edb = edbToDF(spark, Map(
      "arc" -> edgesToTuples(GraphData.chain(n).toSet),
      "nullEdge" -> Set(Vector(1L, 2L))))
    val (out, plain, broadcasts) = countingJobs(engine(relConf.copy(dsd = false)).evaluate(Programs.csda, edb))
    info(s"$plain non-broadcast and $broadcasts broadcast jobs for $n iterations")
    assert(plain <= n + 8, s"$plain non-broadcast jobs (and $broadcasts broadcasts) for $n iterations")
    assert(dfToSet(out("null")) == (2L to n.toLong).map(v => Vector(1L, v)).toSet)
  }

  test("dynamic DSD materializes R_δ on its own once the previous R_δ reaches SmallDeltaRows") {
    // TC over groups a→b→c→d plus a→c. Iteration 1's R_δ is all 4·groups
    // arcs; iteration 2 derives tc(a,c) again, which the set difference must
    // drop, and tc(b,d) and tc(a,d), which it must keep. Only iteration 2's
    // merge step can differ between DSD on and off: DSD materializes R_δ
    // separately exactly when 4·groups >= SmallDeltaRows.
    def nonBroadcastJobs(groups: Int, dsd: Boolean): Int = {
      val arcs = (0 until groups).flatMap { g =>
        val a = 4L * g
        Seq((a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a, a + 2))
      }
      val closure = (0 until groups).flatMap { g =>
        for (i <- 0 to 2; j <- i + 1 to 3) yield Vector(4L * g + i, 4L * g + j)
      }.toSet
      // FAST-DEDUP off keeps both arms on generic dedup: under DSD, default
      // flags keep R's keys in a key set, which leaves DSD no choice.
      val (out, plain, _) = countingJobs(
        engine(relConf.copy(dsd = dsd, fastDedup = false)).evaluate(Programs.tc, Map("arc" -> edgesDF(spark, arcs))))
      assert(dfToSet(out("tc")) == closure, s"DSD $dsd over $groups groups")
      plain
    }
    val above = (OofPolicy.SmallDeltaRows / 4 + 1).toInt
    val below = (OofPolicy.SmallDeltaRows / 4 - 1).toInt
    assert(nonBroadcastJobs(above, dsd = true) > nonBroadcastJobs(above, dsd = false))
    assert(nonBroadcastJobs(below, dsd = true) == nonBroadcastJobs(below, dsd = false))
  }

  test("a one-tuple Δ broadcasts at most once per iteration: the rule join's build side, never R") {
    // CSDA over a chain, as above, on Spark (UIE off); the key-set merge
    // step builds nothing on R.
    val n = 20
    val edb = edbToDF(spark, Map(
      "arc" -> edgesToTuples(GraphData.chain(n).toSet),
      "nullEdge" -> Set(Vector(1L, 2L))))
    val (out, plain, broadcasts) = countingJobs(engine(uieOff).evaluate(Programs.csda, edb))
    assert(broadcasts <= n, s"$broadcasts broadcast jobs (and $plain others) for $n iterations")
    assert(dfToSet(out("null")) == (2L to n.toLong).map(v => Vector(1L, v)).toSet)
  }

  /** CSDA over chain(n) from null(1, 2): n - 1 iterations of a one-tuple Δ. */
  private def csdaChain(n: Int): Map[String, DataFrame] = edbToDF(spark, Map(
    "arc" -> edgesToTuples(GraphData.chain(n).toSet),
    "nullEdge" -> Set(Vector(1L, 2L))))

  test("a one-tuple Δ runs no broadcast job: iteration 1 plans no rule that reads its own stratum") {
    // Iteration 1 would broadcast the empty Δ of null(x, w) ⋈ arc; the
    // driver tier runs the later iterations with no job at all.
    val (out, plain, broadcasts) = countingJobs(engine().evaluate(Programs.csda, csdaChain(20)))
    assert(broadcasts == 0, s"$broadcasts broadcast jobs (and $plain others)")
    assert(dfToSet(out("null")) == (2L to 20L).map(v => Vector(1L, v)).toSet)
  }

  test("the driver tier's Spark jobs do not grow with the iterations") {
    def jobs(n: Int): Int = {
      val (out, plain, broadcasts) = countingJobs(engine().evaluate(Programs.csda, csdaChain(n)))
      assert(dfToSet(out("null")) == (2L to n.toLong).map(v => Vector(1L, v)).toSet)
      plain + broadcasts
    }
    val (j20, j40) = (jobs(20), jobs(40))
    info(s"$j20 Spark jobs over chain(20), $j40 over chain(40)")
    assert(j20 == j40)
  }

  test("the driver tier is not taken with a §5 switch off, a non-linear rule or a recursive MIN") {
    // Each Spark iteration runs at least one job, so the job count grows
    // with the chain exactly where no iteration runs on the driver.
    def grows(conf: RecStepConf, program: repro.datalog.Program): Boolean = {
      def jobs(n: Int): Int = {
        val (_, plain, broadcasts) = countingJobs(engine(conf).evaluate(program, csdaChain(n)))
        plain + broadcasts
      }
      jobs(16) < jobs(24)
    }
    assert(!grows(relConf, Programs.csda), "all switches on")
    for ((arm, conf) <- figure2Arms if arm != "all-on") assert(grows(conf, Programs.csda), arm)
    val nonLinear = Parser.parse(Programs.csdaSource + "null(x, y) :- null(x, w), null(w, y).")
    assert(grows(relConf, nonLinear), "non-linear rule")
    val minLabel = Parser.parse(
      """lab(y, MIN(x)) :- nullEdge(x, y).
        |lab(y, MIN(l)) :- lab(x, l), arc(x, y).""".stripMargin)
    assert(grows(relConf, minLabel), "recursive MIN")
  }

  /** Figure 2's arms: all on, and each optimization off in turn. */
  private val figure2Arms = Seq(
    "all-on" -> relConf, "uie-off" -> relConf.copy(uie = false),
    "oof-na" -> relConf.copy(oof = OofMode.NoAnalyze), "oof-fa" -> relConf.copy(oof = OofMode.FullAnalyze),
    "dsd-off" -> relConf.copy(dsd = false), "eost-off" -> relConf.copy(eost = false), "fast-dedup-off" -> relConf.copy(fastDedup = false),
    "no-op" -> RecStepConf.noOp)

  test("key sets and delta pieces both match NaiveEvaluator on all eight programs") {
    assert(KeySets.supports(spark.sparkContext.master), "the default flags take key sets here")
    val weighted = GraphData.weighted(TestUtil.randomEdges(20, 50, seed = 4).toVector, maxW = 9, seed = 5)
    val cspa = GraphData.cspaInput(nFuncs = 2, clusterSize = 5, seed = 4)
    val csda = GraphData.csdaInput(segments = 3, segLen = 4, seed = 6)
    val workloads = Seq(
      Programs.tc -> Map("arc" -> edgesToTuples(edges1)),
      Programs.sg -> Map("arc" -> edgesToTuples(TestUtil.randomEdges(15, 25, seed = 3))),
      Programs.reach -> Map("arc" -> edgesToTuples(edges2), "id" -> Set(Vector(1L))),
      Programs.cc -> Map("arc" -> edgesToTuples(edges2)),
      Programs.sssp -> Map("arc" -> weighted.map(e => Vector(e._1, e._2, e._3)).toSet, "id" -> Set(Vector(1L))),
      Programs.andersen -> GraphData.andersenInput(1).asMap.map { case (k, v) => k -> edgesToTuples(v.toSet) },
      Programs.cspa -> Map("assign" -> edgesToTuples(cspa.assign.toSet),
        "dereference" -> edgesToTuples(cspa.dereference.toSet)),
      Programs.csda -> Map("nullEdge" -> edgesToTuples(csda.nullEdge.toSet), "arc" -> edgesToTuples(csda.arc.toSet)),
    )
    assert(workloads.map(_._1).toSet == Programs.byName.values.toSet)
    for ((program, edb) <- workloads) {
      val expected = reference(program, edb)
      for ((arm, conf) <- figure2Arms) {
        val got = run(engine(conf), program, edb)
        for ((p, want) <- expected) assert(got(p) == want, s"$p under $arm")
        assert(KeySets.openCount == 0, s"${expected.keys.mkString(", ")} under $arm")
      }
    }
  }

  test("Figure 2's arms dedup into key sets unless FAST-DEDUP is off") {
    assert(figure2Arms.filterNot(_._2.fastDedup).map(_._1) == Seq("fast-dedup-off", "no-op"))
    // Key set ids are consecutive, so two probes bracket the sets a run opens.
    def probe(): Long = { val id = KeySets.open(); KeySets.release(id); id }
    val edb = Map("arc" -> edgesToTuples(edges1))
    for ((arm, conf) <- figure2Arms) {
      val before = probe()
      run(engine(conf), Programs.tc, edb)
      assert((probe() > before + 1) == conf.fastDedup, arm)
    }
    // only a master that runs every task once, in this JVM
    for (m <- Seq("local", "local[1]", "local[4]", "local[*]")) assert(KeySets.supports(m), m)
    for (m <- Seq("local[4,2]", "local[*,3]", "local-cluster[2,1,1024]", "spark://host:7077", "yarn"))
      assert(!KeySets.supports(m), m)
  }

  test("no key set outlives an evaluation: returned, failed at the iteration cap, or interrupted") {
    assert(KeySets.openCount == 0)
    val chain = Map("arc" -> edgesToTuples(GraphData.chain(10).toSet))
    // DSD off opens a key set for each iteration's dedup, FAST-DEDUP off
    // takes generic dedup, and UIE off materializes each subquery.
    for ((arm, conf) <- Seq("default" -> relConf, "DSD off" -> relConf.copy(dsd = false),
                            "FAST-DEDUP off" -> relConf.copy(fastDedup = false), "UIE off" -> relConf.copy(uie = false))) {
      run(engine(conf), Programs.tc, chain)
      assert(KeySets.openCount == 0, s"after a normal return ($arm)")
      // a failed evaluation also leaves nothing it materialized cached
      val cached = cachedBy(intercept[IterationLimitException](
        run(engine(conf.copy(maxIterations = 2)), Programs.tc, chain)))
      assert(KeySets.openCount == 0, s"after IterationLimitException ($arm)")
      assert(cached.isEmpty, s"after IterationLimitException ($arm): ${cached.size} RDDs still cached")
    }

    // CSDA over a 400-vertex chain runs 400 iterations; interrupt it once its
    // key set is open. Wherever the interrupt lands, even inside a checkpoint
    // that then never returns its DataFrame, nothing the run cached stays.
    val sc = spark.sparkContext
    val edb = edbToDF(spark, Map(
      "arc" -> edgesToTuples(GraphData.chain(400).toSet),
      "nullEdge" -> Set(Vector(1L, 2L))))
    val failure = new AtomicReference[Throwable]
    val cached = cachedBy {
      val evaluation = new Thread(() => {
        sc.setJobGroup("interrupted-evaluation", "interrupted evaluation", interruptOnCancel = true)
        try engine().evaluate(Programs.csda, edb)
        catch { case t: Throwable => failure.set(t) }
      })
      evaluation.start()
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(60)
      while (KeySets.openCount == 0 && evaluation.isAlive && System.nanoTime() < deadline) Thread.sleep(5)
      assert(KeySets.openCount == 1, "the evaluation opened its key set")
      evaluation.interrupt()
      evaluation.join(TimeUnit.SECONDS.toMillis(60))
      sc.cancelJobGroup("interrupted-evaluation")
      assert(!evaluation.isAlive, "the interrupted evaluation returned")
    }
    assert(failure.get != null, "the interrupted evaluation failed")
    assert(KeySets.openCount == 0, s"after an interrupt (${failure.get})")
    assert(cached.isEmpty, s"after an interrupt (${failure.get}): ${cached.size} RDDs still cached")
  }

  /** Runs `body` and returns the ids of the RDDs it left cached. Every RDD
    * cached while it runs is kept reachable, so that only the engine's own
    * release, not the garbage collector, can drop one.
    */
  private def cachedBy(body: => Unit): Set[Int] = {
    val sc = spark.sparkContext
    val reachable = ConcurrentHashMap.newKeySet[AnyRef]()
    val keep = new SparkListener {
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        sc.getPersistentRDDs.valuesIterator.foreach(reachable.add)
    }
    val before = sc.getPersistentRDDs.keySet
    sc.addSparkListener(keep)
    try body finally sc.removeSparkListener(keep)
    sc.getPersistentRDDs.keySet.toSet -- before
  }

  /** Evaluates `program` and asserts that afterwards exactly the results'
    * own pieces stay cached: the merge steps released every materialization
    * they superseded.
    */
  private def evaluateReleasing(arm: String, conf: RecStepConf, program: repro.datalog.Program,
                                edb: Map[String, DataFrame]): Map[String, DataFrame] = {
    def pieces(df: DataFrame): Set[Int] = df.queryExecution.logical.collect { case r: LogicalRDD => r.rdd.id }.toSet
    var out = Map.empty[String, DataFrame]
    val cached = cachedBy { out = engine(conf).evaluate(program, edb) }
    val read = out.values.flatMap(pieces).toSet
    assert(cached == read, s"$arm: ${cached.size} RDDs cached, the results read ${read.size}")
    out
  }

  test("merge steps release the materializations they supersede") {
    def check(arm: String, conf: RecStepConf, program: repro.datalog.Program,
              edb: Map[String, Set[Vector[Long]]]): Unit = {
      val out = evaluateReleasing(arm, conf, program, edbToDF(spark, edb))
      for ((p, want) <- reference(program, edb)) assert(dfToSet(out(p)) == want, s"$arm: $p")
    }
    // 59 iterations of one fact each: on Spark (UIE off) R's pieces are
    // compacted twice; with every switch on the driver tier hands its keys
    // back as one piece
    val chain = edgesToTuples(GraphData.chain(60).toSet)
    val csda = Map("arc" -> chain, "nullEdge" -> Set(Vector(1L, 2L)))
    check("key sets", relConf, Programs.csda, csda)
    check("UIE off", relConf.copy(uie = false), Programs.csda, csda)
    // the MIN merge step replaces R in each of 59 iterations
    check("MIN merge", relConf, Programs.cc, Map("arc" -> chain))
  }

  test("dynamic DSD picks TPSD once β ≥ 2α/(α−1), and releases the R_δ it materializes") {
    // TC over 70,000 chains x→y→z, a shortcut x→z on every fourth, and
    // 160,000 dead-end arcs. Iteration 1's R_δ is all 317,500 arcs, so TPSD
    // is possible in iteration 2, whose R_δ is the 70,000 pairs x→z: β ≈ 4.5.
    // FAST-DEDUP off keeps R's keys out of a key set, which would leave DSD
    // no choice.
    val chains = 70000
    val deadEnds = 160000
    val paths = (0 until chains).map(i => (3L * i, 3L * i + 2))
    val arcs = (0 until chains).flatMap(i => Seq((3L * i, 3L * i + 1), (3L * i + 1, 3L * i + 2))) ++
      paths.indices.filter(_ % 4 == 0).map(paths) ++
      (0 until deadEnds).map(j => (3L * chains + 2L * j, 3L * chains + 2L * j + 1))
    assert(SetDifference.decide(arcs.size, chains, OofPolicy.Alpha, muPrev = 10).beta >= 2 * OofPolicy.Alpha / (OofPolicy.Alpha - 1))
    // TC plans no semi-join of its own; TPSD's intersection is one, planned
    // only in the job that materializes ΔR.
    val sc = spark.sparkContext
    val semiJoins = new SparkListener {
      @volatile var n = 0
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case s: SparkListenerSQLExecutionStart if s.physicalPlanDescription.contains("LeftSemi") => n += 1
        case _ => ()
      }
    }
    sc.addSparkListener(semiJoins)
    val (out, _, _) = try countingJobs(evaluateReleasing("TPSD", relConf.copy(fastDedup = false), Programs.tc,
      Map("arc" -> edgesDF(spark, arcs)))) finally sc.removeSparkListener(semiJoins)
    info(s"${semiJoins.n} SQL executions planned a semi-join")
    assert(semiJoins.n == 1, s"${semiJoins.n} SQL executions planned TPSD's intersection")
    assert(dfToSet(out("tc")) == (arcs ++ paths).map { case (a, b) => Vector(a, b) }.toSet)
  }

  // ------------------------------------------------ small-Δ driver tier

  /** Σ|Δ| of each iteration of the stratum of `pred` under synchronous
    * semi-naïve evaluation: the facts that each round of Jacobi-style naïve
    * evaluation derives first, with the earlier strata taken from `idbs`,
    * the program's fixpoint.
    */
  private def deltaSizes(program: repro.datalog.Program, edb: Map[String, Set[Vector[Long]]],
                         idbs: Map[String, Set[Vector[Long]]], pred: String): Seq[Int] = {
    val stratum = repro.datalog.Analyzer.analyze(program).strata.find(_.preds(pred)).get
    var db: Map[String, Set[Vector[Long]]] = edb ++ idbs ++ stratum.preds.map(_ -> Set.empty[Vector[Long]])
    val sizes = Seq.newBuilder[Int]
    var fresh = 1
    while (fresh > 0) {
      val derived = stratum.rules.groupMapReduce(_.head.pred)(r => repro.ref.NaiveEvaluator.applyRule(r, db))(_ ++ _)
      val added = derived.map { case (p, ts) => p -> (ts -- db(p)) }
      fresh = added.values.map(_.size).sum
      if (fresh > 0) sizes += fresh
      db ++= added.map { case (p, ts) => p -> (db(p) ++ ts) }
    }
    sizes.result()
  }

  /** Evaluates `program` under all-on flags (PBME off) and checks it against
    * `NaiveEvaluator`. The input must make Σ|Δ| of `pred`'s stratum cross
    * the tier's bound both ways: at most the bound in some iteration, so a
    * later one runs on the driver, then above it, so the tier hands back to
    * Spark, then at most the bound again. The driver's iterations run no job,
    * so the run has fewer jobs than iterations.
    */
  private def crossesTier(name: String, source: String, edb: Map[String, Set[Vector[Long]]], pred: String): Unit = {
    val program = Parser.parse(source)
    val bound = OofPolicy.DriverDeltaRows
    val expected = reference(program, edb)
    val sizes = deltaSizes(program, edb, expected, pred)
    // iteration i + 2 runs where sizes(i) (iteration i + 1's Δ) allows
    val onDriver = sizes.map(_ <= bound)
    val entered = onDriver.indexOf(true)
    val left = onDriver.indexOf(false, entered)
    assert(entered >= 0 && left > entered && onDriver.indexOf(true, left) > left,
      s"$name: Σ|Δ| per iteration ${sizes.mkString(", ")} does not cross $bound both ways")
    val (got, plain, broadcasts) = countingJobs(run(engine(), program, edb))
    for ((p, want) <- expected) assert(got(p) == want, s"$name: $p")
    assert(plain + broadcasts < sizes.size, s"$name: ${plain + broadcasts} jobs for ${sizes.size} iterations")
    assert(KeySets.openCount == 0, name)
  }

  /** A chain 1 → … → 24 whose vertex `at` also points to `fan` leaves
    * (1001…), and `sources` (5001…), which the programs start at vertex 1.
    */
  private def fanChain(fan: Int, at: Long = 8): Set[(Long, Long)] =
    GraphData.chain(24).toSet ++ (1 to fan).map(j => (at, 1000L + j))
  private def sources(n: Int): Seq[Long] = (1 to n).map(5000L + _)

  test("the driver tier matches NaiveEvaluator on TC, REACH, CSDA and SG, entering and leaving it") {
    // 40 sources reach the 30 leaves together: 1,200 new facts in one iteration
    crossesTier("TC", Programs.tcSource,
      Map("arc" -> edgesToTuples(fanChain(30) ++ sources(40).map(s => (s, 1L)))), "tc")
    crossesTier("CSDA", Programs.csdaSource,
      Map("arc" -> edgesToTuples(fanChain(30)), "nullEdge" -> sources(40).map(s => Vector(s, 1L)).toSet), "null")
    crossesTier("REACH", Programs.reachSource,
      Map("arc" -> edgesToTuples(fanChain(1100, at = 20)), "id" -> Set(Vector(1L))), "reach")
    // SG over two ladders from vertex 0 whose 12th rungs each fan out to 24
    // leaves: 2 · 24² pairs of cousins in one iteration
    val ladder = (0 until 2).flatMap { side =>
      val v = (k: Int) => 100L * side + k + 1
      (0L, v(0)) +: ((0 until 20).map(k => (v(k), v(k + 1))) ++ (1 to 24).map(j => (v(12), 1000L * (side + 1) + j)))
    }.toSet
    crossesTier("SG", Programs.sgSource, Map("arc" -> edgesToTuples(ladder)), "sg")
  }

  test("the driver tier matches NaiveEvaluator on mutual recursion, constants, repeated variables, " +
       "comparisons, negation of an earlier stratum, head constants and arity 1 and 3") {
    val arc = edgesToTuples(fanChain(30))
    val starts = sources(40).map(s => Vector(s, 1L)).toSet
    crossesTier("linear mutual recursion",
      """odd(x, y) :- start(x, y).
        |even(x, y) :- odd(x, z), arc(z, y).
        |odd(x, y) :- even(x, z), arc(z, y).""".stripMargin,
      Map("arc" -> arc, "start" -> starts), "odd")
    // arity 3 with head constants; constants in the Δ atom; comparisons
    // (start(2, 1) derives t(2, 1, 2), which x != y drops)
    crossesTier("arity 3, constants, comparisons",
      """t(x, 0, y) :- start(x, y).
        |t(x, 1, y) :- t(x, 0, z), arc(z, y), x != y.
        |t(x, 1, y) :- t(x, 1, z), arc(z, y), x != y, z != 20.""".stripMargin,
      Map("arc" -> arc, "start" -> (starts + Vector(2L, 1L))), "t")
    // a repeated variable in the Δ atom (p(z, z)) and in a fixed atom
    // (loop(z, w, w)); constants in fixed atoms
    val lab = fanChain(30).toSeq.map { case (a, b) => Vector(a, b, if (b > 1000) 0L else 1L) }.toSet
    val loops = Set(Vector(8L, 8L, 8L), Vector(9L, 9L, 10L), Vector(3L, 4L, 4L))
    crossesTier("repeated variables",
      """p(x, y) :- start(x, y).
        |p(y, y) :- start(_, y).
        |p(x, y) :- p(x, z), lab(z, y, 1).
        |p(x, y) :- p(x, z), loop(z, w, w), lab(w, y, 0).
        |p(z, y) :- p(z, z), lab(z, y, 1).""".stripMargin,
      Map("lab" -> lab, "loop" -> loops, "start" -> starts), "p")
    // arity 1, with the negation of an earlier stratum's IDB
    crossesTier("arity 1, negation",
      """blocked(y) :- bad(y).
        |r(y) :- id(y).
        |r(y) :- r(x), arc(x, y), !blocked(y).""".stripMargin,
      Map("arc" -> edgesToTuples(fanChain(1100, at = 20)), "id" -> Set(Vector(1L)),
          "bad" -> Set(Vector(1005L), Vector(23L))), "r")
  }

  test("an interrupt stops an evaluation in the driver tier within 2 s, leaving no key set or cached RDD") {
    // CSDA over a chain of a million vertices: a million iterations of a
    // one-tuple Δ, nearly all on the driver.
    val n = 1000000L
    val edb = Map(
      "arc" -> spark.range(1, n).select(col("id").as("c0"), (col("id") + 1).as("c1")),
      "nullEdge" -> edgesDF(spark, Seq((1L, 2L))))
    def probe(): Long = { val id = KeySets.open(); KeySets.release(id); id }
    val keySet = probe() + 1 // the evaluation's, as key set ids are consecutive
    val failure = new AtomicReference[Throwable]
    val cached = cachedBy {
      val evaluation = new Thread(() => {
        try engine(relConf.copy(maxIterations = 2 * n.toInt)).evaluate(Programs.csda, edb)
        catch { case t: Throwable => failure.set(t) }
      })
      evaluation.start()
      // wait until the tier has derived a thousand facts
      def size = try KeySets.lookup(keySet).size catch { case _: IllegalStateException => 0L }
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(60)
      while (size < 1000 && evaluation.isAlive && System.nanoTime() < deadline) Thread.sleep(5)
      assert(size >= 1000 && evaluation.isAlive, "the evaluation runs in the tier")
      val interrupted = System.nanoTime()
      evaluation.interrupt()
      evaluation.join(TimeUnit.SECONDS.toMillis(60))
      val took = (System.nanoTime() - interrupted) / 1e9
      assert(!evaluation.isAlive, "the interrupted evaluation returned")
      info(f"returned $took%.3f s after the interrupt")
      assert(took < 2.0, f"the evaluation returned $took%.2f s after the interrupt")
    }
    assert(failure.get != null, "the interrupted evaluation failed")
    assert(KeySets.openCount == 0, s"after an interrupt (${failure.get})")
    assert(cached.isEmpty, s"after an interrupt (${failure.get}): ${cached.size} RDDs still cached")
  }
}
