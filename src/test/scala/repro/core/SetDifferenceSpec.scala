package repro.core

import org.scalacheck.{Gen, Prop}
import repro.SparkSpec
import repro.TestUtil.checkProp
import repro.graphs.GraphData

class SetDifferenceSpec extends SparkSpec {

  private def dfOf(ts: Set[Vector[Long]]) = GraphData.tuplesToDF(spark, ts.toSeq, 2)
  private def collect(df: org.apache.spark.sql.DataFrame): Set[Vector[Long]] =
    df.collect().map(r => Vector.tabulate(r.size)(i => r.getLong(i))).toSet

  // ----------------------------------------------------- cost model regions

  test("beta <= 1 chooses OPSD (R is the smaller side)") {
    assert(!SetDifference.decide(rCount = 10, deltaCount = 100, alpha = 2.0, muPrev = 5).useTpsd)
    assert(!SetDifference.decide(rCount = 100, deltaCount = 100, alpha = 2.0, muPrev = 5).useTpsd)
  }

  test("beta >= 2a/(a-1) chooses TPSD") {
    // alpha=2 -> threshold 4
    assert(SetDifference.decide(rCount = 400, deltaCount = 100, alpha = 2.0, muPrev = 1).useTpsd)
    assert(SetDifference.decide(rCount = 401, deltaCount = 100, alpha = 2.0, muPrev = 1).useTpsd)
  }

  test("middle region uses mu from the previous iteration") {
    // alpha=2, beta=2: TPSD iff 2*(2-1) > 2 + 2/mu  <=>  2/mu < 0  — never
    assert(!SetDifference.decide(200, 100, 2.0, muPrev = 100).useTpsd)
    // alpha=3, beta=2.5: TPSD iff 2.5*2 > 3 + 3/mu <=> 3/mu < 2 <=> mu > 1.5
    assert(SetDifference.decide(250, 100, 3.0, muPrev = 2.0).useTpsd)
    assert(!SetDifference.decide(250, 100, 3.0, muPrev = 1.0).useTpsd)
  }

  test("empty delta yields infinite beta (TPSD region, vacuous)") {
    val d = SetDifference.decide(100, 0, 2.0, 1.0)
    assert(d.beta.isPosInfinity)
  }

  test("alpha must exceed 1") {
    assertThrows[IllegalArgumentException](SetDifference.decide(1, 1, 1.0, 1.0))
  }

  test("property: decision is monotone in beta at fixed mu") {
    checkProp(Prop.forAll(Gen.chooseNum(1L, 10000L), Gen.chooseNum(1L, 10000L)) { (r1, r2) =>
      val (lo, hi) = (math.min(r1, r2), math.max(r1, r2))
      val d = 100L
      // if TPSD at lower |R| then TPSD at higher |R| too
      !SetDifference.decide(lo, d, 2.0, 3.0).useTpsd ||
        SetDifference.decide(hi, d, 2.0, 3.0).useTpsd
    })
  }

  // ----------------------------------------------------- physical operators

  private val rnd = new scala.util.Random(11)
  private def randSet(n: Int): Set[Vector[Long]] =
    Set.fill(n)(Vector(rnd.nextInt(40).toLong, rnd.nextInt(40).toLong))

  test("OPSD computes R_delta minus R") {
    val rd = randSet(60); val r = randSet(80)
    val got = collect(SetDifference.opsd(dfOf(rd), dfOf(r), r.size, broadcastRows = 1000))
    assert(got == rd -- r)
  }

  test("TPSD computes the same difference and its intersection") {
    val rd = randSet(60); val r = randSet(80)
    val (diffDf, interDf) = SetDifference.tpsd(dfOf(rd), dfOf(r), r.size, rd.size, 1000)
    assert(collect(diffDf) == rd -- r)
    assert(collect(interDf) == (rd intersect r))
  }

  test("TPSD with delta larger than R") {
    val rd = randSet(120); val r = randSet(30)
    val (diffDf, interDf) = SetDifference.tpsd(dfOf(rd), dfOf(r), r.size, rd.size, 1000)
    assert(collect(diffDf) == rd -- r)
    assert(collect(interDf) == (rd intersect r))
  }

  test("OPSD and TPSD agree without broadcast (sort-merge path)") {
    val rd = randSet(100); val r = randSet(100)
    val o = collect(SetDifference.opsd(dfOf(rd), dfOf(r), r.size, broadcastRows = 0))
    val (t, _) = SetDifference.tpsd(dfOf(rd), dfOf(r), r.size, rd.size, 0)
    assert(o == collect(t))
    assert(o == rd -- r)
    // R_δ derived from R shares its attribute ids, as in the engine's loop
    val extra = randSet(30)
    val rDf = dfOf(r)
    val shared = rDf.union(dfOf(extra)).localCheckpoint()
    for (budget <- Seq(0L, 1000L)) {
      val os = collect(SetDifference.opsd(shared, rDf, r.size, budget))
      val (ts, is) = SetDifference.tpsd(shared, rDf, r.size, r.size + extra.size, budget)
      assert(os == extra -- r && collect(ts) == os)
      assert(collect(is) == r)
    }
  }

  test("difference against empty R is identity") {
    val rd = randSet(20)
    val empty = dfOf(Set.empty)
    assert(collect(SetDifference.opsd(dfOf(rd), empty, 0, 1000)) == rd)
  }

  test("difference of disjoint sets keeps everything") {
    val rd = Set(Vector(1L, 1L), Vector(2L, 2L))
    val r = Set(Vector(3L, 3L))
    assert(collect(SetDifference.opsd(dfOf(rd), dfOf(r), 1, 1000)) == rd)
    val (t, i) = SetDifference.tpsd(dfOf(rd), dfOf(r), 1, 2, 1000)
    assert(collect(t) == rd && collect(i).isEmpty)
  }
}
