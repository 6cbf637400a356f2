package repro.pbme

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.datalog.{Analyzer, Parser}
import repro.programs.Programs
import repro.ref.NaiveEvaluator

class PbmeSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  // --------------------------------------------------------- bit matrices

  test("BitMatrix set/get/testAndSet") {
    val m = new BitMatrix(100)
    assert(!m.get(5, 77))
    m.set(5, 77)
    assert(m.get(5, 77))
    assert(!m.testAndSet(5, 77))
    assert(m.testAndSet(5, 78))
    assert(m.cardinality == 2)
  }

  test("BitMatrix row iteration and orRow") {
    val m = new BitMatrix(70)
    m.set(1, 1); m.set(1, 64); m.set(1, 70)
    var seen = List.empty[Int]
    m.foreachInRow(1)(j => seen ::= j)
    assert(seen.toSet == Set(1, 64, 70))
    val m2 = new BitMatrix(70)
    m2.orRow(2, m.row(1))
    assert(m2.get(2, 64) && m2.get(2, 70) && m2.rowCardinality(2) == 3)
  }

  test("BitMatrix clear") {
    val m = new BitMatrix(10)
    m.set(3, 4); m.clear(3, 4)
    assert(!m.get(3, 4) && m.cardinality == 0)
  }

  test("AtomicBitMatrix testAndSet claims exactly once") {
    val m = new AtomicBitMatrix(50)
    assert(m.testAndSet(7, 9))
    assert(!m.testAndSet(7, 9))
    assert(m.get(7, 9) && !m.get(9, 7))
    assert(m.cardinality == 1)
  }

  test("AtomicBitMatrix concurrent claims are unique") {
    val m = new AtomicBitMatrix(64)
    val claims = new java.util.concurrent.atomic.AtomicInteger(0)
    val threads = (0 until 8).map(_ => new Thread(() => {
      (1 to 64).foreach(i => (1 to 64).foreach(j => if (m.testAndSet(i, j)) claims.incrementAndGet()))
    }))
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(claims.get() == 64 * 64)
    assert(m.cardinality == 64 * 64)
  }

  test("tuples materialization") {
    val m = new BitMatrix(5)
    m.set(1, 2); m.set(4, 5)
    assert(m.tuples.toSet == Set((1L, 2L), (4L, 5L)))
  }

  // --------------------------------------------------------------- kernels

  test("PBME TC matches the reference on random graphs") {
    for (seed <- 1 to 5) {
      val edges = TestUtil.randomEdges(30, 70, seed).toVector
      val expected = NaiveEvaluator
        .evaluate(Programs.tc, Map("arc" -> edgesToTuples(edges.toSet)))("tc")
      val got = Pbme.tc(edges, 30).tuples.map(t => Vector(t._1, t._2)).toSet
      assert(got == expected, s"seed $seed")
    }
  }

  test("PBME TC with a single worker thread") {
    val edges = TestUtil.randomEdges(20, 40, 9).toVector
    val expected = Pbme.tc(edges, 20).tuples.toSet
    assert(Pbme.tc(edges, 20, threads = 1).tuples.toSet == expected)
  }

  test("PBME SG matches the reference on random graphs") {
    for (seed <- 1 to 5) {
      val edges = TestUtil.randomEdges(18, 30, seed + 10).toVector
      val expected = NaiveEvaluator
        .evaluate(Programs.sg, Map("arc" -> edgesToTuples(edges.toSet)))("sg")
      val got = Pbme.sg(edges, 18).tuples.map(t => Vector(t._1, t._2)).toSet
      assert(got == expected, s"seed $seed")
    }
  }

  test("PBME SG derives diagonal pairs via the recursive rule") {
    val edges = Vector((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L))
    val got = Pbme.sg(edges, 4).tuples.toSet
    assert(got.contains((4L, 4L)))
  }

  test("PBME TC on an empty graph") {
    assert(Pbme.tc(Vector.empty, 5).cardinality == 0)
  }

  /** Per-bit BFS closure, one source at a time. */
  private def bfsClosure(edges: Iterable[(Long, Long)]): Set[(Long, Long)] = {
    val succ = edges.groupMap(_._1)(_._2)
    succ.keySet.flatMap { i =>
      val seen = scala.collection.mutable.Set.empty[Long]
      var frontier = succ(i).toSet
      while (frontier.nonEmpty) {
        seen ++= frontier
        frontier = frontier.flatMap(succ.getOrElse(_, Nil)).diff(seen)
      }
      seen.map(j => (i, j))
    }
  }

  test("word-parallel TC equals a per-bit BFS closure with 1 and 3 threads") {
    for (seed <- 1 to 4; threads <- Seq(1, 3)) {
      val edges = TestUtil.randomEdges(150, 170 + 40 * seed, seed + 20).toVector
      assert(Pbme.tc(edges, 150, threads).tuples.toSet == bfsClosure(edges), s"seed $seed threads $threads")
    }
  }

  test("an interrupted TC call returns promptly and stops its workers") {
    def workers() = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .filter(t => t.isAlive && t.getName.startsWith("pbme-worker"))
    def await(cond: => Boolean, ms: Long): Boolean = {
      val end = System.currentTimeMillis + ms
      while (!cond && System.currentTimeMillis < end) Thread.sleep(10)
      cond
    }
    assert(await(workers().isEmpty, 2000), "workers of earlier calls still running")
    // A 20K-vertex graph with a giant strongly connected component: its
    // closure takes far longer than the test waits.
    val n = 20000
    val edges = TestUtil.randomEdges(n, 4 * n, 5).toVector
    @volatile var outcome: Throwable = null
    val caller = new Thread(() =>
      outcome = try { Pbme.tc(edges, n, threads = 3); new AssertionError("tc finished") }
                catch { case t: Throwable => t })
    caller.start()
    assert(await(workers().nonEmpty, 10000), "kernel never started")
    caller.interrupt()
    caller.join(2000)
    assert(!caller.isAlive, "tc ignored the interrupt")
    assert(outcome.isInstanceOf[InterruptedException], s"unexpected outcome $outcome")
    assert(await(workers().isEmpty, 2000), s"workers left running: ${workers().map(_.getName).mkString(", ")}")
  }

  // --------------------------------------------------------------- matcher

  private def analyzed(src: String) = Analyzer.analyze(Parser.parse(src))

  test("matcher recognizes the TC program") {
    assert(PbmeMatcher.matchProgram(analyzed(Programs.tcSource))
      .contains(PbmeMatcher.TcShape("tc", "arc")))
  }

  test("matcher recognizes the SG program") {
    assert(PbmeMatcher.matchProgram(analyzed(Programs.sgSource))
      .contains(PbmeMatcher.SgShape("sg", "arc")))
  }

  test("matcher recognizes renamed variables") {
    val src = "closure(a, b) :- edge(a, b). closure(a, b) :- closure(a, m), edge(m, b)."
    assert(PbmeMatcher.matchProgram(analyzed(src))
      .contains(PbmeMatcher.TcShape("closure", "edge")))
  }

  test("matcher rejects left-linear TC variants") {
    val src = "tc(x, y) :- arc(x, y). tc(x, y) :- arc(x, z), tc(z, y)."
    assert(PbmeMatcher.matchProgram(analyzed(src)).isEmpty)
  }

  test("matcher rejects REACH, CSDA, Andersen") {
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.reach)).isEmpty)
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.csda)).isEmpty)
    assert(PbmeMatcher.matchProgram(Analyzer.analyze(Programs.andersen)).isEmpty)
  }

  test("matcher rejects a TC variant with an extra filter") {
    val src = "tc(x, y) :- arc(x, y). tc(x, y) :- tc(x, z), arc(z, y), x != y."
    assert(PbmeMatcher.matchProgram(analyzed(src)).isEmpty)
  }

  // ----------------------------------------------------------- tryEvaluate

  test("tryEvaluate runs TC when the domain fits") {
    val edges = TestUtil.randomEdges(12, 25, 3)
    val arc = edgesDF(spark, edges.toSeq)
    val shape = PbmeMatcher.TcShape("tc", "arc")
    val out = Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).get
    val expected = NaiveEvaluator.evaluate(Programs.tc, Map("arc" -> edgesToTuples(edges)))("tc")
    assert(dfToSet(out("tc")) == expected)
  }

  test("tryEvaluate declines when the domain exceeds the cap") {
    val arc = edgesDF(spark, Seq((1L, 500L)))
    val shape = PbmeMatcher.TcShape("tc", "arc")
    assert(Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).isEmpty)
  }

  test("tryEvaluate matches the reference at word boundaries and with isolated vertices") {
    // Vertices on both sides of the 64-bit word boundaries; every id in
    // 2..62, 66..126 and above 129 has an empty row.
    val boundary = Vector(1L, 63L, 64L, 65L, 127L, 128L, 129L)
    val fixed = Set((1L, 63L), (1L, 64L), (63L, 65L), (64L, 127L), (65L, 128L),
                    (127L, 64L), (128L, 1L), (129L, 65L), (129L, 127L))
    val graphs = fixed +: (1 to 4).map { seed =>
      val rnd = new scala.util.Random(seed)
      Set.fill(12)((boundary(rnd.nextInt(boundary.size)), boundary(rnd.nextInt(boundary.size))))
        .filter { case (a, b) => a != b }
    }
    for ((edges, g) <- graphs.zipWithIndex;
         (shape, program) <- Seq(PbmeMatcher.TcShape("tc", "arc") -> Programs.tc,
                                 PbmeMatcher.SgShape("sg", "arc") -> Programs.sg)) {
      val expected = NaiveEvaluator.evaluate(program, Map("arc" -> edgesToTuples(edges)))(shape.idb)
      val out = Pbme.tryEvaluate(shape, Map("arc" -> edgesDF(spark, edges.toSeq)), maxVertices = 200).get
      assert(dfToSet(out(shape.idb)) == expected, s"graph $g, $shape")
    }
  }

  test("tryEvaluate accepts a domain of exactly maxVertices") {
    val edges = TestUtil.randomEdges(40, 90, 11) + ((39L, 40L))
    for ((shape, program) <- Seq(PbmeMatcher.TcShape("tc", "arc") -> Programs.tc,
                                 PbmeMatcher.SgShape("sg", "arc") -> Programs.sg)) {
      val out = Pbme.tryEvaluate(shape, Map("arc" -> edgesDF(spark, edges.toSeq)), maxVertices = 40)
      assert(out.isDefined, s"$shape declined")
      val expected = NaiveEvaluator.evaluate(program, Map("arc" -> edgesToTuples(edges)))(shape.idb)
      assert(dfToSet(out.get(shape.idb)) == expected, s"$shape")
    }
  }

  test("tryEvaluate's DataFrame keeps its schema and agrees across actions") {
    val edges = TestUtil.randomEdges(70, 150, 4)
    val df = Pbme.tryEvaluate(PbmeMatcher.TcShape("tc", "arc"),
      Map("arc" -> edgesDF(spark, edges.toSeq)), maxVertices = 100).get("tc")
    assert(df.schema == StructType(Seq(StructField("c0", LongType, nullable = false),
                                       StructField("c1", LongType, nullable = false))))
    val counted = df.count()
    val rows = df.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(counted == rows.length && rows.toSet == bfsClosure(edges))
  }

  test("tryEvaluate declines on non-positive vertex ids") {
    val arc = edgesDF(spark, Seq((0L, 3L)))
    val shape = PbmeMatcher.TcShape("tc", "arc")
    assert(Pbme.tryEvaluate(shape, Map("arc" -> arc), maxVertices = 100).isEmpty)
  }

  // ------------------------------------------------------ memory fit

  test("matricesFit: an n×n matrix takes (n+1)·⌈(n+1)/64⌉·8 bytes") {
    val one = 32768L * 512 * 8 // n = 32767: 32768 rows of 512 words
    assert(Pbme.matricesFit(32767, 1, one))
    assert(!Pbme.matricesFit(32767, 1, one - 1))
    assert(Pbme.matricesFit(32767, 2, 2 * one))
    assert(!Pbme.matricesFit(32767, 2, 2 * one - 1))
    assert(Pbme.matricesFit(0, 2, 16))
  }

  test("matricesFit rejects a cell count past Int range whatever the heap") {
    // 371001 rows of 5797 words is 2.1507e9 cells > Int.MaxValue;
    // 370001 rows of 5782 words is 2.1393e9 cells, just inside it.
    assert(!Pbme.matricesFit(371000, 1, Long.MaxValue / 16))
    assert(Pbme.matricesFit(370000, 1, Long.MaxValue / 16))
  }

  test("tryEvaluate falls back when the matrices would not fit the heap") {
    // 200K vertices: two matrices of 5 GB each. The vertex cap lets them
    // through, so only the heap check can decline.
    val n = 200000L
    assume(!Pbme.matricesFit(n, 2, Runtime.getRuntime.maxMemory))
    val arc = edgesDF(spark, Seq((1L, n)))
    assert(Pbme.tryEvaluate(PbmeMatcher.TcShape("tc", "arc"), Map("arc" -> arc), maxVertices = Int.MaxValue).isEmpty)
  }
}
