package repro.pbme

import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.core.{IterationLimitException, RecStepConf, RecStepEngine}
import repro.datalog.{Analyzer, Parser, Program}
import repro.graphs.GraphData
import repro.programs.Programs

class ChainEvaluatorSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  private def evaluate(program: Program, edb: Map[String, Set[Vector[Long]]], maxVertices: Int = 1 << 15,
                       threads: Int = 3, maxIterations: Int = 100_000): Either[String, Map[String, TupleSet]] =
    ChainEvaluator.tryEvaluate(Analyzer.analyze(program), edbToDF(spark, edb), maxVertices, maxIterations, threads)
      .map(_.map { case (p, df) => p -> dfToSet(df) })

  /** The evaluator takes `program` and agrees with `expected` on every IDB. */
  private def matches(name: String, program: Program, edb: Map[String, Set[Vector[Long]]], threads: Int = 3,
                      expected: Option[Map[String, TupleSet]] = None): Unit = {
    val want = expected.getOrElse(reference(program, edb))
    evaluate(program, edb, threads = threads) match {
      case Left(reason) => fail(s"$name: declined: $reason")
      case Right(got) =>
        assert(got.keySet == want.keySet, name)
        for ((p, w) <- want) assert(got(p) == w, s"$name: $p")
    }
  }

  /** Random arcs over ids on both sides of the 64-bit word boundaries, and
    * isolated ids in between.
    */
  private def boundaryArcs(seed: Int, m: Int): Set[(Long, Long)] = {
    val ids = Vector(1L, 2L, 5L, 63L, 64L, 65L, 127L, 128L, 129L)
    val rnd = new scala.util.Random(seed)
    Set.fill(m)((ids(rnd.nextInt(ids.size)), ids(rnd.nextInt(ids.size))))
  }

  test("TC, SG, REACH and CSDA match NaiveEvaluator, with ids at 63, 64 and 65 and isolated vertices") {
    for (seed <- 1 to 4) {
      val arc = edgesToTuples(boundaryArcs(seed, 14))
      matches(s"TC $seed", Programs.tc, Map("arc" -> arc))
      matches(s"SG $seed", Programs.sg, Map("arc" -> arc))
      matches(s"REACH $seed", Programs.reach, Map("arc" -> arc, "id" -> Set(Vector(64L), Vector(2L))))
      matches(s"CSDA $seed", Programs.csda,
        Map("arc" -> arc, "nullEdge" -> edgesToTuples(boundaryArcs(seed + 10, 3))))
    }
  }

  test("AA and CSPA match NaiveEvaluator (non-linear and mutual recursion, self-loops)") {
    for (seed <- 1 to 3) {
      val aa = GraphData.andersenInput(1, seed = seed).asMap.map { case (k, v) => k -> edgesToTuples(v.toSet) }
      matches(s"AA $seed", Programs.andersen, aa)
      val cspa = GraphData.cspaInput(nFuncs = 2, clusterSize = 6, seed = seed)
      matches(s"CSPA $seed", Programs.cspa,
        Map("assign" -> edgesToTuples(cspa.assign.toSet), "dereference" -> edgesToTuples(cspa.dereference.toSet)))
    }
  }

  test("rows split across three workers give Souffle-lite's fixpoint") {
    // Inputs large enough for NaiveEvaluator to be slow, and for an
    // iteration to have the rows of three workers
    val souffle = new repro.baselines.souffle.SouffleLite()
    def check(name: String, program: Program, edb: Map[String, Set[Vector[Long]]]): Unit = {
      val want = souffle.evaluateInMemory(program, edb.map { case (p, ts) => p -> ts.toSeq.map(_.toArray) })
        .map { case (p, ts) => p -> ts.map(_.toVector).toSet }
      matches(name, program, edb, threads = 3, expected = Some(want))
    }
    for (seed <- 1 to 2) {
      val arc = edgesToTuples(TestUtil.randomEdges(300, 500, seed))
      check(s"TC $seed", Programs.tc, Map("arc" -> arc))
      check(s"CSDA $seed", Programs.csda,
        Map("arc" -> arc, "nullEdge" -> edgesToTuples(TestUtil.randomEdges(300, 20, seed + 5))))
      val cspa = GraphData.cspaInput(nFuncs = 20, clusterSize = 8, seed = seed)
      check(s"CSPA $seed", Programs.cspa,
        Map("assign" -> edgesToTuples(cspa.assign.toSet), "dereference" -> edgesToTuples(cspa.dereference.toSet)))
    }
  }

  test("x != y guards, self-loops, reversed steps, unary starts and mutual recursion match NaiveEvaluator") {
    val arc = edgesToTuples(boundaryArcs(7, 16) ++ Set((5L, 5L), (64L, 64L)))
    // (x, x) from a guarded rule is dropped, but kept where another rule
    // derives it; a guarded rule also reads its own head reversed
    matches("guards", Parser.parse(
      """a(x, y) :- e(x, z), e(z, y), x != y.
        |a(x, y) :- a(x, z), e(z, y), x != y.
        |a(x, x) :- e(y, x).
        |b(x, y) :- a(z, x), e(z, y), x != y.
        |b(x, y) :- e(x, y), x != y.""".stripMargin), Map("e" -> arc))
    matches("self-loops", Parser.parse(
      """l(x, x) :- e(x, y), e(y, z).
        |l(x, x) :- e(y, x), l(y, z).
        |m(x, x) :- e(y, x).""".stripMargin), Map("e" -> arc))
    matches("unary starts", Parser.parse(
      """r(y) :- s(y).
        |r(y) :- r(x), e(x, y).
        |t(y) :- s(x), e(y, x).
        |u(y) :- t(x), p(x, y).
        |p(x, y) :- e(y, x).
        |p(x, y) :- p(x, z), p(z, y).""".stripMargin),
      Map("e" -> arc, "s" -> Set(Vector(64L), Vector(129L))))
    matches("mutual recursion", Parser.parse(
      """odd(x, y) :- e(x, y).
        |even(x, y) :- odd(x, z), e(z, y).
        |odd(x, y) :- even(x, z), e(z, y).
        |oddFrom(y) :- s(y).
        |evenFrom(y) :- oddFrom(x), odd(x, y).
        |oddFrom(y) :- evenFrom(x), e(y, x).""".stripMargin),
      Map("e" -> arc, "s" -> Set(Vector(1L))))
  }

  test("empty EDBs give empty IDBs of the right schema") {
    val out = ChainEvaluator.tryEvaluate(Analyzer.analyze(Programs.reach),
      Map("arc" -> edgesDF(spark, Seq.empty), "id" -> unaryDF(spark, Seq.empty)), 100, 100).toOption.get
    assert(out("reach").schema == StructType(Seq(StructField("c0", LongType, nullable = false))))
    assert(out("reach").count() == 0)
    val tc = ChainEvaluator.tryEvaluate(Analyzer.analyze(Programs.tc), Map("arc" -> edgesDF(spark, Seq((1L, 2L)))), 100, 100)
      .toOption.get("tc")
    assert(tc.schema == StructType(Seq(StructField("c0", LongType, nullable = false),
                                       StructField("c1", LongType, nullable = false))))
  }

  test("a stratum still deriving facts at the iteration cap fails, naming it") {
    val edb = Map("arc" -> edgesToTuples(GraphData.chain(10).toSet), "nullEdge" -> Set(Vector(1L, 2L)))
    val e = intercept[IterationLimitException](evaluate(Programs.csda, edb, maxIterations = 3))
    assert(e.preds == Seq("null") && e.limit == 3)
    // null(1, 2) … null(1, 10) in iterations 1–9; the 10th finds nothing new
    assert(intercept[IterationLimitException](evaluate(Programs.csda, edb, maxIterations = 9)).limit == 9)
    assert(evaluate(Programs.csda, edb, maxIterations = 10).isRight)
  }

  test("programs outside the fragment, or outside its domain, are declined with a reason and run relationally") {
    val arc = edgesToTuples(Set((1L, 2L), (2L, 3L), (3L, 1L)))
    // one tuple against four full matrices over {1..30000}: 56M words
    val sparse = Map("arc" -> Set.empty[Vector[Long]], "nullEdge" -> Set(Vector(1L, 30000L)))
    val cases = Seq[(String, String, Map[String, Set[Vector[Long]]], String)](
      ("aggregation", "c(x, COUNT(y)) :- arc(x, y).", Map("arc" -> arc), "aggregation"),
      ("negation", "n(x, y) :- arc(x, y), !arc(y, x).", Map("arc" -> arc), "negation"),
      ("arity 3", "t(x, y) :- w(x, y, d).", Map("w" -> Set(Vector(1L, 2L, 3L))), "binary"),
      ("constants", "k(x, y) :- arc(x, y), arc(y, 3).", Map("arc" -> arc), "constants"),
      ("non-positive ids", Programs.tcSource + "t2(x, y) :- tc(x, y).",
        Map("arc" -> (arc + Vector(0L, 1L))), "non-positive"),
      ("over the cap", Programs.csdaSource, Map("arc" -> edgesToTuples(Set((1L, 40000L))), "nullEdge" -> Set(Vector(1L, 1L))),
        "exceeds"),
      ("cost check", Programs.csdaSource, sparse, "too sparse"))
    for ((name, source, edb, reason) <- cases) {
      val program = Parser.parse(source)
      evaluate(program, edb) match {
        case Left(why) => assert(why.contains(reason), s"$name: $why")
        case Right(_)  => fail(s"$name: not declined")
      }
      val expected = reference(program, edb)
      val got = runEngine(new RecStepEngine(RecStepConf.default), program, edb)
      for ((p, want) <- expected) assert(got(p) == want, s"$name: $p")
    }
  }

  /** Runs `body` and counts the Spark jobs it starts. */
  private def jobsOf[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val Marker = "chain-job-count-marker"
    val jobs = new SparkListener {
      @volatile var count = 0
      @volatile var sawMarker = false
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.job.description") == Marker)) sawMarker = true
        else count += 1
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
      (out, jobs.count)
    } finally sc.removeSparkListener(jobs)
  }

  test("an id outside {1..maxVertices} stops the read: its partition sends that id alone, and no later EDB is read") {
    var read = 0
    val rows = Iterator.tabulate(1000) { i => read += 1; Row(if (i == 1) 40000L else i + 1L, 1L) }
    assert(Pbme.packIds(rows, arity = 2, maxVertices = 32768) == Left(40000L))
    assert(read == 2, s"$read rows read")
    assert(Pbme.packIds(Iterator(Row(3L), Row(0L), Row(4L)), arity = 1, maxVertices = 100) == Left(0L))
    assert(Pbme.packIds(Iterator(Row(3L, 100L)), arity = 2, maxVertices = 100).map(_.toSeq) == Right(Seq(3, 100)))

    val arc = edgesDF(spark, (1L to 999L).map(i => (i, i + 1)) :+ ((5L, 40000L))).repartition(4).cache()
    arc.count()
    val edb = Map("arc" -> arc, "nullEdge" -> edgesDF(spark, Seq((1L, 2L))))
    val (out, jobs) = jobsOf(Pbme.loadIds(edb, Seq("arc" -> 2, "nullEdge" -> 2), maxVertices = 32768))
    assert(out == Left("id 40000 in 'arc' exceeds the cap of 32768 vertices"))
    assert(jobs == 1, s"$jobs Spark jobs")
    arc.unpersist()
  }

  test("RecStep's default configuration runs CSDA on bit matrices: one job reads each EDB, and none checkpoints") {
    val edb = edbToDF(spark, Map("arc" -> edgesToTuples(GraphData.chain(40).toSet), "nullEdge" -> Set(Vector(1L, 2L))))
    edb.values.foreach(_.cache().count())
    val (out, jobs) = jobsOf(new RecStepEngine(RecStepConf.default).evaluate(Programs.csda, edb))
    assert(jobs == 2, s"$jobs Spark jobs")
    assert(dfToSet(out("null")) == (2L to 40L).map(v => Vector(1L, v)).toSet)
  }

  test("an interrupted evaluation returns within 2 s and stops its workers") {
    def workers() = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .filter(t => t.isAlive && t.getName.startsWith("pbme-worker"))
    def await(cond: => Boolean, ms: Long): Boolean = {
      val end = System.currentTimeMillis + ms
      while (!cond && System.currentTimeMillis < end) Thread.sleep(10)
      cond
    }
    assert(await(workers().isEmpty, 2000), "workers of earlier calls still running")
    // TC with a third rule, so that PbmeMatcher leaves it to the chain
    // evaluator, over a 20K-vertex graph with a giant strongly connected
    // component: each (row, bit) of its closure ORs an arc row of 313 words.
    val program = Parser.parse(Programs.tcSource + "tc(x, y) :- arc(x, z), arc(z, y).")
    val n = 20000
    val arc: DataFrame = edgesDF(spark, TestUtil.randomEdges(n, 4 * n, 5).toSeq).cache()
    arc.count()
    val outcome = new AtomicReference[Throwable]
    val caller = new Thread(() =>
      outcome.set(try { new RecStepEngine(RecStepConf.default).evaluate(program, Map("arc" -> arc)); new AssertionError("finished") }
                  catch { case t: Throwable => t }))
    caller.start()
    assert(await(workers().nonEmpty, 30000), "the workers never started")
    val interrupted = System.nanoTime()
    caller.interrupt()
    caller.join(2000)
    val took = (System.nanoTime() - interrupted) / 1e9
    assert(!caller.isAlive, "the evaluation ignored the interrupt")
    info(f"returned $took%.3f s after the interrupt")
    assert(outcome.get.isInstanceOf[InterruptedException], s"unexpected outcome ${outcome.get}")
    assert(await(workers().isEmpty, 2000), s"workers left running: ${workers().map(_.getName).mkString(", ")}")
    arc.unpersist()
  }
}
