package repro.core

import org.apache.spark.sql.SparkSession
import repro.{SparkSpec, TestUtil}
import repro.TestUtil._
import repro.baselines.bdd.BddEngine
import repro.baselines.bigdatalog.BigDatalogLite
import repro.baselines.graspan.GraspanLite
import repro.baselines.souffle.SouffleLite
import repro.datalog.Parser
import repro.graphs.GraphData
import repro.programs.Programs
import repro.ref.NaiveEvaluator

/** Cross-engine differential testing: every engine that supports a workload
  * must produce the identical fixpoint on randomized inputs — the strongest
  * end-to-end check the repo has (five independent implementations,
  * including two non-relational ones, must agree with the reference).
  */
class EngineDifferentialSpec extends SparkSpec {
  implicit def s: SparkSession = spark

  private val recstep = new RecStepEngine(RecStepConf.default)
  private val souffle = new SouffleLite()
  private val bigdatalog = new BigDatalogLite()
  private val graspan = new GraspanLite()
  private val bdd = new BddEngine()

  test("all five engines agree on TC over random graphs") {
    for (seed <- 1 to 3) {
      val edb = Map("arc" -> edgesToTuples(TestUtil.randomEdges(20, 40, seed * 100)))
      val expected = reference(Programs.tc, edb)("tc")
      for (e <- Seq(recstep, souffle, bigdatalog, graspan, bdd)) {
        val got = runEngine(e, Programs.tc, edb)
        assert(got("tc") == expected, s"${e.name} diverged on seed $seed")
      }
    }
  }

  test("supporting engines agree on SG (PBME vs in-memory vs BDD)") {
    val edb = Map("arc" -> edgesToTuples(TestUtil.randomEdges(14, 24, 77)))
    val expected = reference(Programs.sg, edb)("sg")
    for (e <- Seq(recstep, souffle, bigdatalog, bdd)) {
      assert(runEngine(e, Programs.sg, edb).apply("sg") == expected, s"${e.name} diverged")
    }
  }

  test("supporting engines agree on REACH") {
    val edb = Map(
      "arc" -> edgesToTuples(GraphData.rmat(64, 150, 5).toSet),
      "id" -> Set(Vector(1L)))
    val expected = reference(Programs.reach, edb)("reach")
    for (e <- Seq(recstep, souffle, bigdatalog, bdd))
      assert(runEngine(e, Programs.reach, edb).apply("reach") == expected, s"${e.name} diverged")
  }

  test("supporting engines agree on Andersen's analysis") {
    val edb = GraphData.andersenInput(1, seed = 99).asMap
      .map { case (k, v) => k -> edgesToTuples(v.toSet) }
    val expected = reference(Programs.andersen, edb)("pointsTo")
    for (e <- Seq(recstep, souffle, bigdatalog, bdd))
      assert(runEngine(e, Programs.andersen, edb).apply("pointsTo") == expected, s"${e.name} diverged")
  }

  test("supporting engines agree on CSPA") {
    val in = GraphData.cspaInput(nFuncs = 2, clusterSize = 6, seed = 4)
    val edb = Map(
      "assign" -> edgesToTuples(in.assign.toSet),
      "dereference" -> edgesToTuples(in.dereference.toSet))
    val expected = reference(Programs.cspa, edb)
    for (e <- Seq(recstep, souffle, graspan, bdd); p <- expected.keys)
      assert(runEngine(e, Programs.cspa, edb).apply(p) == expected(p), s"${e.name} diverged on $p")
  }

  test("supporting engines agree on CSDA") {
    val in = GraphData.csdaInput(segments = 3, segLen = 4, seed = 6)
    val edb = Map(
      "nullEdge" -> edgesToTuples(in.nullEdge.toSet),
      "arc" -> edgesToTuples(in.arc.toSet))
    val expected = reference(Programs.csda, edb)("null")
    for (e <- Seq(recstep, souffle, bigdatalog, graspan, bdd))
      assert(runEngine(e, Programs.csda, edb).apply("null") == expected, s"${e.name} diverged")
  }

  test("RecStep and BigDatalog-lite agree on CC and SSSP (recursive MIN)") {
    val ccEdb = Map("arc" -> edgesToTuples(GraphData.rmat(32, 80, 8).toSet))
    val ccExpected = reference(Programs.cc, ccEdb)
    for (e <- Seq[DatalogEngine](recstep, bigdatalog); p <- ccExpected.keys)
      assert(runEngine(e, Programs.cc, ccEdb).apply(p) == ccExpected(p), s"${e.name} diverged on $p")

    val wEdges = GraphData.weighted(GraphData.rmat(32, 90, 9), maxW = 7, seed = 3)
    val ssspEdb = Map(
      "arc" -> wEdges.map(e => Vector(e._1, e._2, e._3)).toSet,
      "id" -> Set(Vector(1L)))
    val ssspExpected = reference(Programs.sssp, ssspEdb)("sssp")
    for (e <- Seq[DatalogEngine](recstep, bigdatalog))
      assert(runEngine(e, Programs.sssp, ssspEdb).apply("sssp") == ssspExpected, s"${e.name} diverged")
  }

  /** Did `run` fail with an [[ArithmeticException]], possibly wrapped? */
  private def overflows(run: => Any): Boolean =
    try { run; false }
    catch {
      case t: Throwable =>
        Iterator.iterate(t)(_.getCause).takeWhile(_ != null).exists(_.isInstanceOf[ArithmeticException])
    }

  test("path weights summing past Long.MaxValue fail with an arithmetic overflow") {
    // RecStep's arithmetic runs in Spark SQL, which raises on overflow only
    // in ANSI mode.
    assert(spark.conf.get("spark.sql.ansi.enabled").toBoolean, "the test session must run in ANSI mode")
    val half = Long.MaxValue / 2 + 1 // two of these sum to 2^63
    val edb = Map(
      "arc" -> Set(Vector(1L, 2L, 5L), Vector(2L, 3L, half), Vector(3L, 4L, half)),
      "id" -> Set(Vector(1L)))
    // SSSP without the MIN, which Souffle-lite (no recursive aggregation) runs
    val pathSum = Parser.parse(
      """dist(y, d) :- id(x), arc(x, y, d).
        |dist(y, d1 + d2) :- dist(x, d1), arc(x, y, d2).""".stripMargin)
    val inMemory = edb.map { case (p, ts) => p -> ts.toSeq.map(_.toArray) }
    assert(overflows(NaiveEvaluator.evaluate(pathSum, edb)), "NaiveEvaluator")
    assert(overflows(souffle.evaluateInMemory(pathSum, inMemory)), "Souffle-lite")
    assert(overflows(runEngine(recstep, pathSum, edb)), "RecStep")
    // SSSP itself, on the engines with recursive MIN
    assert(overflows(NaiveEvaluator.evaluate(Programs.sssp, edb)), "NaiveEvaluator (SSSP)")
    assert(overflows(runEngine(recstep, Programs.sssp, edb)), "RecStep (SSSP)")
  }

  test("a SUM past Long.MaxValue fails with an arithmetic overflow in every engine") {
    val half = Long.MaxValue / 2 + 1
    val total = Parser.parse("total(x, SUM(w)) :- arc(x, y, w).")
    val fits = Map("arc" -> Set(Vector(1L, 2L, half), Vector(1L, 3L, half - 1)))
    val past = Map("arc" -> Set(Vector(1L, 2L, half), Vector(1L, 3L, half)))
    def inMemory(edb: Map[String, Set[Vector[Long]]]) = edb.map { case (p, ts) => p -> ts.toSeq.map(_.toArray) }
    // right up to the bound, all three agree
    val expected = Set(Vector(1L, Long.MaxValue))
    assert(NaiveEvaluator.evaluate(total, fits)("total") == expected)
    assert(souffle.evaluateInMemory(total, inMemory(fits))("total").map(_.toVector).toSet == expected)
    assert(runEngine(recstep, total, fits).apply("total") == expected)
    // one past it, none of them wraps
    assert(overflows(NaiveEvaluator.evaluate(total, past)), "NaiveEvaluator")
    assert(overflows(souffle.evaluateInMemory(total, inMemory(past))), "Souffle-lite")
    assert(overflows(runEngine(recstep, total, past)), "RecStep")
  }
}
