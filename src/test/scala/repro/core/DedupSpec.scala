package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.SparkSpec
import repro.TestUtil.{checkProp, edgesToTuples, reference, runEngine}
import repro.datalog.{Analyzer, Parser}
import repro.graphs.GraphData
import repro.programs.Programs

class DedupSpec extends SparkSpec {

  private def dfOf(tuples: Seq[Vector[Long]], arity: Int) =
    GraphData.tuplesToDF(spark, tuples, arity)

  private def collect(df: DataFrame): Set[Vector[Long]] =
    df.collect().map(r => Vector.tabulate(r.size)(i => r.getLong(i))).toSet

  test("canPack boundaries per arity") {
    assert(Dedup.canPack(1, (1L << 62)))
    assert(Dedup.canPack(1, Long.MaxValue)) // identity pack: any non-negative fits
    assert(Dedup.canPack(2, (1L << 31) - 1))
    assert(!Dedup.canPack(2, 1L << 31))
    assert(Dedup.canPack(3, (1L << 21) - 1))
    assert(!Dedup.canPack(3, 1L << 21))
    assert(!Dedup.canPack(4, 1L))
    assert(!Dedup.canPack(2, -1L))
  }

  test("packable: bounded set IDBs of programs without arithmetic") {
    def packable(src: String, edbBound: Long) = Dedup.packable(Analyzer.analyze(Parser.parse(src)), edbBound)
    assert(packable(Programs.tcSource, (1L << 31) - 1) == Set("tc"))
    assert(packable(Programs.tcSource, 1L << 31).isEmpty)
    // a program constant raises the bound
    assert(packable("r(x) :- a(x, _). p(x, 2147483648) :- a(x, _).", 10) == Set("r"))
    // a negative EDB value makes the bound Long.MaxValue: only arity 1's
    // identity pack takes it
    assert(packable(Programs.reachSource, Long.MaxValue) == Set("reach"))
    // a COUNT head packs nothing, as any IDB may copy its values; recursive
    // MIN/MAX IDBs have no dedup
    assert(packable(Programs.gtcSource, 100).isEmpty)
    assert(packable(Programs.ccSource, 100) == Set("cc2", "cc"))
    // arithmetic anywhere (SSSP's d1 + d2) packs nothing
    assert(packable(Programs.ssspSource, 100).isEmpty)
  }

  test("property: pack/unpack roundtrip for arity 2") {
    checkProp(Prop.forAll(
      Gen.chooseNum(0L, (1L << 31) - 1), Gen.chooseNum(0L, (1L << 31) - 1)) { (a, b) =>
      val df = dfOf(Seq(Vector(a, b)), 2)
      val packed = df.select(Dedup.packExpr(2).as("ck"))
      val back = packed.select(Dedup.unpackExprs(2, col("ck")): _*)
      collect(back) == Set(Vector(a, b))
    }, minTests = 30)
  }

  test("property: pack is injective for arity 2") {
    checkProp(Prop.forAll(
      Gen.chooseNum(0L, (1L << 31) - 1), Gen.chooseNum(0L, (1L << 31) - 1),
      Gen.chooseNum(0L, (1L << 31) - 1), Gen.chooseNum(0L, (1L << 31) - 1)) { (a, b, c, d) =>
      val pack: (Long, Long) => Long = (x, y) => (x << 31) | y
      ((a, b) == (c, d)) == (pack(a, b) == pack(c, d))
    }, minTests = 50)
  }

  test("pack/unpack roundtrip for arity 1 and 3") {
    val df1 = dfOf(Seq(Vector(123456789L)), 1)
    assert(collect(df1.select(Dedup.packExpr(1).as("ck"))
      .select(Dedup.unpackExprs(1, col("ck")): _*)) == Set(Vector(123456789L)))
    val t3 = Vector((1L << 21) - 1, 0L, 77L)
    val df3 = dfOf(Seq(t3), 3)
    assert(collect(df3.select(Dedup.packExpr(3).as("ck"))
      .select(Dedup.unpackExprs(3, col("ck")): _*)) == Set(t3))
  }

  test("the driver's pack and unpack use packExpr's layout") {
    val tuples = Seq(Vector(123456789L), Vector((1L << 62) + 5), Vector(0L, (1L << 31) - 1), Vector(77L, 3L),
      Vector((1L << 21) - 1, 0L, 77L), Vector(5L, (1L << 21) - 1, 9L))
    for (t <- tuples) {
      val arity = t.size
      val ck = dfOf(Seq(t), arity).select(Dedup.packExpr(arity)).collect().head.getLong(0)
      assert(Dedup.pack(t.toArray) == ck, t)
      assert(t.indices.map(Dedup.unpack(ck, arity, _)) == t, t)
    }
  }

  /** FAST-DEDUP: one insert pass into a freshly opened key set, released
    * afterwards. The rows come back as a Seq, so a duplicate would show.
    */
  private def fastDedup(df: DataFrame, numPartitions: Int): Seq[Vector[Long]] = {
    val id = KeySets.open()
    try KeySets.insertFresh(df, id, numPartitions).collect().toSeq.map(r => Vector.tabulate(r.size)(r.getLong))
    finally KeySets.release(id)
  }

  test("fast dedup removes duplicates") {
    val base = Seq(Vector(1L, 2L), Vector(2L, 3L), Vector(1L, 2L), Vector(1L, 2L))
    val out = fastDedup(dfOf(base, 2), numPartitions = 4)
    assert(out.size == 2 && out.toSet == Set(Vector(1L, 2L), Vector(2L, 3L)))
  }

  test("generic dedup removes duplicates") {
    val base = Seq(Vector(1L, 2L), Vector(2L, 3L), Vector(1L, 2L))
    val out = Dedup.generic(dfOf(base, 2), numPartitions = 4)
    assert(collect(out) == Set(Vector(1L, 2L), Vector(2L, 3L)))
  }

  test("fast and generic dedup agree on random input") {
    val rnd = new scala.util.Random(5)
    val tuples = Seq.fill(5000)(Vector(rnd.nextInt(50).toLong, rnd.nextInt(50).toLong))
    val df = dfOf(tuples, 2).repartition(8)
    val fast = fastDedup(df, 8)
    assert(fast.size == fast.toSet.size)
    assert(fast.toSet == collect(Dedup.generic(df, 8)))
  }

  test("fast dedup with zero values (empty-sentinel interaction)") {
    val base = Seq(Vector(0L, 0L), Vector(0L, 0L), Vector(0L, 1L))
    val out = fastDedup(dfOf(base, 2), 2)
    assert(out.size == 2 && out.toSet == Set(Vector(0L, 0L), Vector(0L, 1L)))
  }

  test("fast dedup preserves 5k distinct keys across partitions") {
    val tuples = (1 to 5000).map(i => Vector(i.toLong, (i % 97).toLong))
    val withDups = tuples ++ tuples
    // 16 input partitions: with local[N], N tasks insert at once
    val out = fastDedup(dfOf(withDups, 2).repartition(16), 16)
    assert(out.size == 5000)
    assert(out.toSet == tuples.toSet)
  }

  test("dispatch uses generic path when values are too large to pack") {
    // Ids at or above 2^31 fall back to generic dedup, with FAST-DEDUP on or
    // off, and match NaiveEvaluator. Arity 2 packs 31 bits per value: packed
    // anyway, (0, b) and (1, b) would share a key, since b's bit 31 overlaps
    // the first value's bit 0.
    val b = (1L << 31) + 5
    val edb = Map("arc" -> edgesToTuples(Set((0L, b), (1L, b), (b, 2L), (2L, 1L))))
    val expected = reference(Programs.tc, edb)("tc")
    for ((arm, conf) <- Seq("default" -> RecStepConf(), "dsd-off" -> RecStepConf(dsd = false),
                            "fast-dedup-off" -> RecStepConf(fastDedup = false))) {
      assert(runEngine(new RecStepEngine(conf), Programs.tc, edb)(spark)("tc") == expected, arm)
      assert(KeySets.openCount == 0, arm)
    }
  }

  test("a SUM, COUNT or AVG value that later IDBs copy is not truncated by packing") {
    // The SUM of three arcs of weight 2^30 is 3·2^30, past the 31 bits an
    // arity-2 key gives each value; p and q copy it.
    val w = 1L << 30
    val edb = Map("arc" -> Set(Vector(1L, 2L, w), Vector(1L, 3L, w), Vector(1L, 4L, w)))
    for (agg <- Seq("SUM", "COUNT", "AVG")) {
      val program = Parser.parse(
        s"""s(x, $agg(w)) :- arc(x, y, w).
           |p(x, v) :- s(x, v).
           |q(x, v) :- p(x, v).
           |q(x, v) :- q(x, u), p(u, v).""".stripMargin)
      assert(Dedup.packable(Analyzer.analyze(program), w).isEmpty, agg)
      val expected = reference(program, edb)
      for ((arm, conf) <- Seq("RecStepConf()" -> RecStepConf(), "RecStepConf.default" -> RecStepConf.default)) {
        val got = runEngine(new RecStepEngine(conf), program, edb)(spark)
        for ((p, want) <- expected) assert(got(p) == want, s"$agg: $p under $arm")
      }
    }
  }

  test("dispatch honors fastEnabled = false") {
    // With FAST-DEDUP off every IDB takes generic dedup: the run opens no key
    // set (ids are consecutive, so the two probes bracket it), yet still
    // removes the duplicate derivations of a diamond-shaped graph.
    val off = RecStepConf(fastDedup = false)
    assert(KeySets.supports(spark.sparkContext.master), "the check needs a master that takes key sets")
    val edb = Map("arc" -> edgesToTuples(Set((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L), (4L, 5L), (5L, 1L))))
    def probe(): Long = { val id = KeySets.open(); KeySets.release(id); id }
    val expected = reference(Programs.tc, edb)("tc")
    val onStart = probe()
    assert(runEngine(new RecStepEngine(RecStepConf()), Programs.tc, edb)(spark)("tc") == expected)
    assert(probe() > onStart + 1, "the default run should open a key set")
    val before = probe()
    val out = runEngine(new RecStepEngine(off), Programs.tc, edb)(spark)("tc")
    assert(probe() == before + 1, "FAST-DEDUP off opened a key set")
    assert(out == expected)
  }
}
