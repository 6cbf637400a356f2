package repro.baselines.bdd

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.ChainRules
import repro.baselines.ChainRules._
import repro.core.{DatalogEngine, EngineCapabilities, UnsupportedProgramException}
import repro.datalog.{Analyzer, Program}
import repro.graphs.GraphData
import scala.collection.mutable

/** BDDBDDB-lite: Datalog evaluation over binary decision diagrams in the
  * style of bddbddb [26]. Relations are characteristic functions over
  * bit-encoded columns; joins are rename → AND → EXISTS relational products;
  * set difference is a DIFF; deduplication is free (a BDD *is* a set).
  *
  * Column layout: B bits per column, four interleaved tracks per bit
  * (x, temp1, y, temp2), variable id = bit·4 + track, MSB first. Binary
  * relations live on tracks (x, y); unary on track x.
  *
  * Like the real system it is single-threaded and supports no aggregation;
  * it evaluates the chain fragment (which covers TC, SG, REACH, Andersen,
  * CSPA, CSDA — the workloads BDDBDDB was compared on).
  */
final class BddEngine extends DatalogEngine {

  override def name: String = "BDDBDDB-lite"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = true, nonRecursiveAggregation = false,
    recursiveAggregation = false, negation = false)

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)
    val inputs: Map[String, Seq[Vector[Long]]] = analysis.edbs.map { p =>
      val df = edb.getOrElse(p, throw new IllegalArgumentException(s"missing EDB '$p'"))
      p -> df.collect().map(r => Vector.tabulate(r.size)(i => r.getLong(i))).toSeq
    }.toMap
    val out = evaluateInMemory(program, inputs)
    out.map { case (p, ts) => p -> GraphData.tuplesToDF(spark, ts, analysis.arities(p)) }
  }

  /** Pure in-memory entry (used directly by differential tests). */
  def evaluateInMemory(
      program: Program, edb: Map[String, Seq[Vector[Long]]]): Map[String, Seq[Vector[Long]]] = {
    val analysis = Analyzer.analyze(program)
    if (analysis.hasRecursiveAggregation || analysis.hasNonRecursiveAggregation)
      throw UnsupportedProgramException(name, "aggregation is not supported")
    val rules = ChainRules.extract(analysis.program, analysis.arities) match {
      case Right(rs) => rs
      case Left(err) => throw UnsupportedProgramException(name, err)
    }
    new BddEvaluation(analysis, rules, edb).run()
  }
}

private final class BddEvaluation(
    analysis: Analyzer.Analysis,
    chainRules: Seq[ChainRule],
    edb: Map[String, Seq[Vector[Long]]],
) {
  private val maxId: Long = {
    val vs = edb.valuesIterator.flatten.flatten
    if (vs.isEmpty) 1L else math.max(1L, vs.max)
  }
  /** Bits per column. */
  private val bits: Int = 64 - java.lang.Long.numberOfLeadingZeros(maxId).toInt
  private val tracks = 4
  private val bdd = new Bdd(bits * tracks)

  private def v(bit: Int, track: Int): Int = bit * tracks + track
  private def trackVars(t: Int): Set[Int] = (0 until bits).map(v(_, t)).toSet

  /** Equality (x == y) over tracks (0, 2), built directly bottom-up. */
  private lazy val diag: Int = {
    var rest = bdd.True
    var b = bits - 1
    while (b >= 0) {
      val n0 = bdd.mk(v(b, 2), rest, bdd.False)
      val n1 = bdd.mk(v(b, 2), bdd.False, rest)
      rest = bdd.mk(v(b, 0), n0, n1)
      b -= 1
    }
    rest
  }
  private lazy val neq: Int = bdd.not(diag)

  // relation store: pred -> (bdd node, arity); plus per-pred reversed cache
  private val rel = mutable.Map.empty[String, Int]
  private val delta = mutable.Map.empty[String, Int]
  private val swapCache = mutable.Map.empty[Int, Int]

  def run(): Map[String, Seq[Vector[Long]]] = {
    for (p <- analysis.edbs) rel(p) = fromTuples(edb.getOrElse(p, Seq.empty), analysis.arities(p))
    for (p <- analysis.idbs) rel(p) = bdd.False

    for (s <- analysis.strata) evalStratum(s)
    analysis.idbs.map(p => p -> toTuples(rel(p), analysis.arities(p))).toMap
  }

  private def evalStratum(s: Analyzer.Stratum): Unit = {
    val idbs = s.preds.toSeq.sorted
    val rules = chainRules.filter(r => s.preds.contains(r.head))

    // iteration 1: naïve over full relations
    for (p <- idbs) {
      val derived = rules.filter(_.head == p).map(r => evalChain(r, deltaPos = -1)).foldLeft(bdd.False)(bdd.or)
      delta(p) = bdd.diff(derived, rel(p))
      rel(p) = bdd.or(rel(p), delta(p))
    }
    if (!s.recursive) { idbs.foreach(delta(_) = bdd.False); return }

    var any = idbs.exists(delta(_) != bdd.False)
    while (any) {
      val snapshot = idbs.map(p => p -> delta(p)).toMap
      any = false
      for (p <- idbs) {
        var derived = bdd.False
        for (r <- rules.filter(_.head == p); pos <- deltaPositions(r, s.preds))
          derived = bdd.or(derived, evalChain(r, pos, snapshot))
        val d = bdd.diff(derived, rel(p))
        delta(p) = d
        if (d != bdd.False) { rel(p) = bdd.or(rel(p), d); any = true }
      }
    }
    idbs.foreach(delta(_) = bdd.False)
  }

  /** Delta-substitutable positions: 0 = unary start, 1..k = chain symbols. */
  private def deltaPositions(r: ChainRule, stratumPreds: Set[String]): Seq[Int] = r match {
    case UnaryCopy(_, src) => if (stratumPreds.contains(src)) Seq(0) else Seq.empty
    case UnaryChain(_, start, syms) =>
      (if (stratumPreds.contains(start)) Seq(0) else Seq.empty) ++
        syms.zipWithIndex.collect { case (sym, i) if stratumPreds.contains(sym.pred) => i + 1 }
    case BinaryChain(_, syms, _) =>
      syms.zipWithIndex.collect { case (sym, i) if stratumPreds.contains(sym.pred) => i + 1 }
    case SelfLoop(_, syms) =>
      syms.zipWithIndex.collect { case (sym, i) if stratumPreds.contains(sym.pred) => i + 1 }
  }

  /** Evaluate one chain rule; `deltaPos` (-1 = none) switches that position
    * to the Δ-relation.
    */
  private def evalChain(r: ChainRule, deltaPos: Int, snap: Map[String, Int] = Map.empty): Int = {
    def resolve(pred: String, pos: Int): Int =
      if (pos == deltaPos) snap.getOrElse(pred, delta.getOrElse(pred, bdd.False)) else rel(pred)

    def sym2bdd(sym: Sym, pos: Int): Int = {
      val base = resolve(sym.pred, pos)
      if (!sym.reversed) base else swap(base)
    }

    r match {
      case UnaryCopy(_, src) => resolve(src, 0)
      case UnaryChain(_, start, syms) =>
        var u = resolve(start, 0)
        syms.zipWithIndex.foreach { case (sym, i) => u = uCompose(u, sym2bdd(sym, i + 1)) }
        u
      case BinaryChain(_, syms, neqEnds) =>
        val p = chain(syms, deltaPos, sym2bdd)
        if (neqEnds) bdd.and(p, neq) else p
      case SelfLoop(_, syms) =>
        val p = chain(syms, deltaPos, sym2bdd)
        val starts = bdd.exists(p, trackVars(2)) // unary over track 0
        bdd.and(diag, starts)
    }
  }

  private def chain(syms: Seq[Sym], deltaPos: Int, sym2bdd: (Sym, Int) => Int): Int = {
    var p = sym2bdd(syms.head, 1)
    syms.zipWithIndex.drop(1).foreach { case (sym, i) => p = compose(p, sym2bdd(sym, i + 1)) }
    p
  }

  /** Relational composition over tracks: P(x,y) ∘ Q(y,z) → (x,z).
    * P's y goes to temp track 1, Q's x likewise; AND; project out track 1;
    * Q's z (still on track 2) becomes the result's y.
    */
  private def compose(p: Int, q: Int): Int = {
    val pShift = bdd.rename(p, (0 until bits).map(b => v(b, 2) -> v(b, 1)).toMap)
    val qShift = bdd.rename(q, (0 until bits).map(b => v(b, 0) -> v(b, 1)).toMap)
    bdd.exists(bdd.and(pShift, qShift), trackVars(1))
  }

  /** U(x) ∘ Q(x,y) → unary over the destination, re-based to track 0. */
  private def uCompose(u: Int, q: Int): Int = {
    val joined = bdd.exists(bdd.and(u, q), trackVars(0))
    bdd.rename(joined, (0 until bits).map(b => v(b, 2) -> v(b, 0)).toMap)
  }

  /** Column swap (x,y) → (y,x), cached per node. */
  private def swap(p: Int): Int = swapCache.getOrElseUpdate(p, {
    val m = (0 until bits).flatMap(b => Seq(v(b, 0) -> v(b, 2), v(b, 2) -> v(b, 0))).toMap
    bdd.rename(p, m)
  })

  // ------------------------------------------------------------- encoding

  private def fromTuples(tuples: Seq[Vector[Long]], arity: Int): Int = {
    require(arity == 1 || arity == 2, s"BDD relations are unary or binary, got arity $arity")
    var acc = bdd.False
    tuples.foreach { t =>
      var cube = bdd.True
      // build the minterm bottom-up in descending variable order
      val lits = (0 until arity).flatMap { c =>
        val track = if (c == 0) 0 else 2
        (0 until bits).map(b => (v(b, track), ((t(c) >> (bits - 1 - b)) & 1L) == 1L))
      }.sortBy(-_._1)
      lits.foreach { case (vr, bit) =>
        cube = if (bit) bdd.mk(vr, bdd.False, cube) else bdd.mk(vr, cube, bdd.False)
      }
      acc = bdd.or(acc, cube)
    }
    acc
  }

  private def toTuples(node: Int, arity: Int): Seq[Vector[Long]] = {
    val colTracks = if (arity == 1) Seq(0) else Seq(0, 2)
    val vars = colTracks.flatMap(t => (0 until bits).map(v(_, t)))
    val out = new mutable.ArrayBuffer[Vector[Long]]()
    bdd.foreachSat(node, vars) { assignment =>
      out += colTracks.map { t =>
        (0 until bits).foldLeft(0L)((acc, b) =>
          (acc << 1) | (if (assignment(v(b, t))) 1L else 0L))
      }.toVector
    }
    out.toSeq
  }
}
