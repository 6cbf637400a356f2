package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.datalog._
import repro.pbme.{Pbme, PbmeMatcher}
import scala.collection.mutable

/** RecStep: the paper's Datalog engine (§4, Algorithm 1) with Spark's
  * Catalyst/DataFrame layer playing the role of QuickStep.
  *
  * Evaluation is stratified semi-naïve. Within a recursive stratum,
  * iteration 1 applies every rule naïvely over the full relations; from
  * iteration 2 on, only recursive rules run, one delta-subquery per
  * same-stratum IDB atom occurrence (deltas are snapshotted at iteration
  * start — synchronous semi-naïve). Each iteration then performs, per IDB:
  * dedup (UNION ALL + separate dedup, §4), set difference (DSD, §5.1), and
  * merge — exactly Algorithm 1 lines 8–13.
  *
  * Strata whose IDBs carry monotone MIN/MAX heads (CC/SSSP) use the
  * recursive-aggregation loop: candidates are merged group-wise and the
  * delta is the set of strictly-improved rows.
  *
  * Every §5 optimization is an independent switch on [[RecStepConf]]; see
  * that class and DESIGN.md for the mechanism mapping.
  */
final class RecStepEngine(conf: RecStepConf = RecStepConf.default) extends DatalogEngine {

  override def name: String = "RecStep"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = true, nonRecursiveAggregation = true,
    recursiveAggregation = true, negation = true)

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)

    // PBME fast path (§5.3): bit-matrix evaluation for TC/SG-shaped programs
    // over a small active domain.
    if (conf.pbme) {
      PbmeMatcher.matchProgram(analysis).foreach { shape =>
        Pbme.tryEvaluate(shape, edb, conf.pbmeMaxVertices) match {
          case Some(result) => return result
          case None         => () // domain too large — fall back to relational
        }
      }
    }

    new Evaluation(analysis, edb, conf, spark).run()
  }
}

private final class Evaluation(
    analysis: Analyzer.Analysis,
    edbInput: Map[String, DataFrame],
    conf: RecStepConf,
    spark: SparkSession,
) {
  import Analyzer.{Stratum, AggSignature}

  /** State of one relation: checkpointed delta pieces whose union is the
    * full relation, the exact row count (maintained incrementally — ΔR is
    * disjoint from R by construction), and OOF bookkeeping (previous R_δ
    * size as the dedup-size estimate, previous μ for the DSD model).
    */
  private final class RelState(val arity: Int) {
    var pieces: Vector[DataFrame] = Vector.empty
    var rows: Long = 0L
    var delta: DataFrame = emptyRel(arity)
    var deltaRows: Long = 0L
    var prevRdeltaRows: Long = 0L
    var mu: Double = 10.0
    def full: DataFrame = if (pieces.isEmpty) emptyRel(arity) else pieces.reduce(_ union _)
  }

  private val rels = mutable.Map.empty[String, RelState]
  private var edbMaxValue: Long = 0L
  private val adaptive = conf.oof != OofMode.NoAnalyze

  /** Arithmetic can carry IDB values beyond the EDB active-domain bound, so
    * the packed-CK dedup (whose bit budget is derived from that bound) is
    * disabled for such programs.
    */
  private val programHasArith: Boolean = {
    def arith(e: Expr): Boolean = e match {
      case EVar(_) | ELit(_) => false
      case _                 => true
    }
    analysis.program.rules.exists(r =>
      r.head.terms.exists { case HExpr(e) => arith(e); case HAgg(_, e) => arith(e) } ||
        r.comparisons.exists(c => arith(c.l) || arith(c.r)))
  }

  def run(): Map[String, DataFrame] = {
    loadEdbs()
    // Program constants can also reach IDB columns; fold them into the
    // CCK packability bound.
    val consts = analysis.program.rules.flatMap { r =>
      r.body.collect { case BAtom(_, ts, _) => ts.collect { case Num(v) => v } }.flatten ++
        r.head.terms.flatMap { case HExpr(e) => exprLits(e); case HAgg(_, e) => exprLits(e) }
    }
    if (consts.nonEmpty) {
      if (consts.min < 0) edbMaxValue = Long.MaxValue // disables packing
      else edbMaxValue = math.max(edbMaxValue, consts.max)
    }
    for (p <- analysis.idbs) rels(p) = new RelState(analysis.arities(p))
    for (stratum <- analysis.strata) {
      if (stratum.recursiveAggs.nonEmpty) evalAggStratum(stratum)
      else evalSetStratum(stratum)
    }
    analysis.idbs.map(p => p -> rels(p).full).toMap
  }

  // -------------------------------------------------------------- loading

  private def loadEdbs(): Unit = {
    if (!conf.eost) {
      val dir = java.nio.file.Files.createTempDirectory("recstep-ckpt").toString
      spark.sparkContext.setCheckpointDir(dir)
    }
    for (p <- analysis.edbs) {
      val df = edbInput.getOrElse(p,
        throw new IllegalArgumentException(s"missing EDB relation '$p'"))
      val st = new RelState(analysis.arities(p))
      // Inputs are pinned in memory regardless of EOST — loading is not part
      // of the evaluation transaction.
      val pinned = df.toDF(df.columns.indices.map(i => s"c$i"): _*).localCheckpoint()
      st.pieces = Vector(pinned)
      st.rows = pinned.count() // initial analyze() on inputs
      rels(p) = st
      // active-domain bound for CCK packability (negative values disable it)
      if (st.rows > 0) {
        val stats = pinned.select(
          (pinned.columns.map(c => max(col(c))) ++ pinned.columns.map(c => min(col(c)))).toIndexedSeq: _*).head()
        val vals = (0 until stats.size).map(i => if (stats.isNullAt(i)) 0L else stats.getLong(i))
        if (vals.min < 0) edbMaxValue = Long.MaxValue
        else edbMaxValue = math.max(edbMaxValue, vals.max)
      }
    }
  }

  private def emptyRel(arity: Int): DataFrame =
    spark.range(0).select((0 until arity).map(i => col("id").as(s"c$i")): _*)

  /** EOST: in-memory materialization only; otherwise each materialization is
    * a committed write (reliable disk checkpoint), as per-query transaction
    * semantics would force.
    */
  private def materialize(df: DataFrame): DataFrame =
    if (conf.eost) df.localCheckpoint() else df.checkpoint()

  // ------------------------------------------------------------- resolvers

  /** Wrap a relation in a broadcast hint when OOF's stats say it is small
    * enough to be the hash-build side. Under OOF-NA only EDBs (whose stats
    * exist from load time) are ever hinted — IDB stats are never refreshed.
    */
  private def hinted(df: DataFrame, rows: Long, isEdb: Boolean): DataFrame =
    if ((adaptive || isEdb) && rows <= conf.broadcastRows) broadcast(df) else df

  private def resolveFull(pred: String): DataFrame = {
    val st = rels(pred)
    hinted(st.full, st.rows, analysis.edbs.contains(pred))
  }

  /** Resolver substituting Δ at one designated same-stratum atom occurrence. */
  private def deltaResolver(deltaOccurrence: Int, snapshot: Map[String, (DataFrame, Long)]): PlanGenerator.Resolver =
    (atom, occ) =>
      if (occ == deltaOccurrence) {
        val (d, n) = snapshot(atom.pred)
        hinted(d, n, isEdb = false)
      } else resolveFull(atom.pred)

  private val fullResolver: PlanGenerator.Resolver = (atom, _) => resolveFull(atom.pred)

  // ------------------------------------------------------- set-semantics

  private def evalSetStratum(s: Stratum): Unit = {
    val idbs = s.preds.toSeq.sorted
    var iteration = 0
    var anyDelta = true
    while (anyDelta && iteration < conf.maxIterations) {
      iteration += 1
      anyDelta = false
      // Snapshot deltas at iteration start (synchronous semi-naïve).
      val snapshot: Map[String, (DataFrame, Long)] =
        idbs.map(p => p -> ((rels(p).delta, rels(p).deltaRows))).toMap

      val newDeltas = for (pred <- idbs) yield {
        val subqueries =
          if (iteration == 1) s.rules.filter(_.head.pred == pred).map(r => PlanGenerator.compileRule(r, fullResolver))
          else deltaSubqueries(s, pred, snapshot)
        pred -> (if (subqueries.isEmpty) None else Some(evalIdb(pred, subqueries)))
      }

      for ((pred, res) <- newDeltas) {
        val st = rels(pred)
        res match {
          case None =>
            st.delta = emptyRel(st.arity); st.deltaRows = 0
          case Some((delta, deltaRows)) =>
            st.delta = delta; st.deltaRows = deltaRows
            if (deltaRows > 0) {
              st.pieces :+= delta
              st.rows += deltaRows
              anyDelta = true
              maybeCompact(st)
            }
        }
      }
      if (!s.recursive) anyDelta = false
    }
    endStratum(idbs, anyDelta)
  }

  /** Fails if the loop stopped at the iteration cap with facts still
    * pending; otherwise leaves no stale deltas behind for later strata.
    */
  private def endStratum(idbs: Seq[String], pending: Boolean): Unit = {
    if (pending) throw IterationLimitException("RecStep", idbs, conf.maxIterations)
    idbs.foreach { p => rels(p).delta = emptyRel(rels(p).arity); rels(p).deltaRows = 0 }
  }

  /** One delta-subquery per (recursive rule, same-stratum atom occurrence). */
  private def deltaSubqueries(
      s: Stratum, pred: String, snapshot: Map[String, (DataFrame, Long)]): Seq[DataFrame] =
    for {
      rule <- s.rules.filter(_.head.pred == pred)
      (atom, occ) <- rule.positiveAtoms.zipWithIndex
      if s.preds.contains(atom.pred)
      if snapshot(atom.pred)._2 > 0 // empty delta contributes nothing
    } yield PlanGenerator.compileRule(rule, deltaResolver(occ, snapshot))

  /** Lines 8–13 of Algorithm 1 for one IDB: uieval (UNION ALL of subqueries,
    * a single plan under UIE, separately materialized per-subquery
    * otherwise), dedup, set difference, merge. Returns (ΔR, |ΔR|).
    */
  private def evalIdb(pred: String, subqueries: Seq[DataFrame]): (DataFrame, Long) = {
    val st = rels(pred)
    val rt: DataFrame =
      if (conf.uie) subqueries.reduce(_ union _)
      else subqueries.map(materialize).reduce(_ union _) // one job per subquery

    // dedup(R_t): the hash-table size estimate is the previous R_δ (OOF's
    // conservative approximation); fixed partitioning under OOF-NA.
    val dedupParts =
      if (adaptive) partsFor(math.max(st.prevRdeltaRows, 1024L))
      else conf.shufflePartitions
    // SUM/COUNT/AVG head values are not bounded by the active domain, so
    // such relations never take the packed-CK path.
    // Small expected dedups cannot amortize the CCK path's extra exchange
    // (the hash table is sized from OOF's estimate, §5.1) — use the plain
    // aggregate below the threshold. Without stats (OOF-NA) stay generic
    // only when the estimate is unavailable on iteration 1.
    val bigEnough = !adaptive || math.max(st.prevRdeltaRows, st.deltaRows) >= conf.smallDeltaRows
    val fastOk = bigEnough && conf.fastDedup && !programHasArith && !analysis.program.rules.exists(r =>
      r.head.pred == pred && r.head.terms.exists {
        case HAgg(op, _) => !AggOp.monotone(op)
        case _           => false
      })
    val rDelta = Dedup(rt, fastOk, edbMaxValue, dedupParts)

    // analyze(R_δ, R): |R| is tracked incrementally; |R_δ| needs a job.
    val rDeltaMat = materialize(rDelta)
    val rDeltaRows = rDeltaMat.count()
    st.prevRdeltaRows = rDeltaRows
    fullAnalyzeOverhead(rDeltaMat)

    // ΔR ← R_δ − R via DSD
    val delta = setDifference(st, rDeltaMat, rDeltaRows)
    val deltaMat = materialize(
      if (adaptive) delta.coalesce(partsFor(rDeltaRows)) else delta)
    (deltaMat, deltaMat.count())
  }

  private def setDifference(st: RelState, rDelta: DataFrame, rDeltaRows: Long): DataFrame = {
    if (st.rows == 0) return rDelta
    if (rDeltaRows == 0) return rDelta // empty - anything = empty
    val useTpsd = conf.dsd match {
      case DsdMode.Opsd    => false
      case DsdMode.Tpsd    => true
      case DsdMode.Dynamic =>
        if (!adaptive) false // OOF-NA: no fresh stats to drive the model
        // tiny R_δ: either translation finishes instantly, but TPSD's extra
        // query + μ-refresh analyze would dominate — keep the one-shot plan
        else if (rDeltaRows < conf.smallDeltaRows) false
        else SetDifference.decide(st.rows, rDeltaRows, conf.alpha, st.mu).useTpsd
    }
    if (!useTpsd) SetDifference.opsd(rDelta, st.full, st.rows, conf.broadcastRows)
    else {
      val (delta, inter) = SetDifference.tpsd(rDelta, st.full, st.rows, rDeltaRows, conf.broadcastRows)
      if (adaptive) {
        val interRows = math.max(1L, inter.count()) // analyze(r) to refresh μ
        st.mu = rDeltaRows.toDouble / interRows
      }
      delta
    }
  }

  /** OOF-FA: recollect *all* stats on every updated table — the overhead arm
    * of Figure 2 (the results are computed and discarded).
    */
  private def fullAnalyzeOverhead(df: DataFrame): Unit =
    if (conf.oof == OofMode.FullAnalyze) {
      val aggs = df.columns.flatMap(c =>
        Seq(min(col(c)), max(col(c)), approx_count_distinct(col(c)), avg(col(c))))
      df.agg(aggs.head, aggs.tail.toIndexedSeq: _*).collect()
      ()
    }

  private def partsFor(rows: Long): Int =
    math.max(1, math.min(conf.shufflePartitions, (rows / 100_000L).toInt + 1))

  /** Compact the union-of-deltas once it grows past the configured width so
    * plan size stays bounded across hundreds of iterations.
    */
  private def maybeCompact(st: RelState): Unit =
    if (st.pieces.size >= conf.compactEvery) {
      st.pieces = Vector(materialize(st.full))
    }

  // -------------------------------------------- recursive MIN/MAX strata

  private def evalAggStratum(s: Stratum): Unit = {
    if (!s.preds.forall(s.recursiveAggs.contains))
      throw UnsupportedProgramException("RecStep",
        s"stratum mixes aggregated and plain IDBs: ${s.preds.mkString(", ")}")
    val idbs = s.preds.toSeq.sorted
    var iteration = 0
    var anyDelta = true
    while (anyDelta && iteration < conf.maxIterations) {
      iteration += 1
      anyDelta = false
      val snapshot: Map[String, (DataFrame, Long)] =
        idbs.map(p => p -> ((rels(p).delta, rels(p).deltaRows))).toMap

      val updates = for (pred <- idbs) yield {
        val sig = s.recursiveAggs(pred)
        val subqueries =
          if (iteration == 1)
            s.rules.filter(_.head.pred == pred).map(r => PlanGenerator.compileRule(r, fullResolver))
          else deltaSubqueries(s, pred, snapshot)
        pred -> (if (subqueries.isEmpty) None else Some(aggStep(pred, sig, subqueries)))
      }

      for ((pred, upd) <- updates) {
        val st = rels(pred)
        upd match {
          case None =>
            st.delta = emptyRel(st.arity); st.deltaRows = 0
          case Some((merged, mergedRows, delta, deltaRows)) =>
            st.delta = delta; st.deltaRows = deltaRows
            if (deltaRows > 0) anyDelta = true
            st.pieces = Vector(merged)
            st.rows = mergedRows
        }
      }
      if (!s.recursive) anyDelta = false
    }
    endStratum(idbs, anyDelta)
  }

  /** Candidates (already per-rule aggregated by the plan generator) are
    * merged group-wise with the current relation; Δ = strictly-improved rows.
    */
  private def aggStep(
      pred: String, sig: AggSignature, subqueries: Seq[DataFrame],
  ): (DataFrame, Long, DataFrame, Long) = {
    val st = rels(pred)
    val cand: DataFrame =
      if (conf.uie) subqueries.reduce(_ union _)
      else subqueries.map(materialize).reduce(_ union _)

    val merged = materialize(mergeAgg(st.full.union(cand), sig))
    val mergedRows = merged.count()
    // improved rows: in merged but not in old R (keys are unique per side,
    // so an all-column anti-join captures both new keys and better values).
    val delta = materialize(
      SetDifference.opsd(merged, st.full, st.rows, conf.broadcastRows))
    (merged, mergedRows, delta, delta.count())
  }

  private def exprLits(e: Expr): Seq[Long] = e match {
    case ELit(v)    => Seq(v)
    case EVar(_)    => Seq.empty
    case EAdd(l, r) => exprLits(l) ++ exprLits(r)
    case ESub(l, r) => exprLits(l) ++ exprLits(r)
    case EMul(l, r) => exprLits(l) ++ exprLits(r)
  }

  private def mergeAgg(df: DataFrame, sig: AggSignature): DataFrame = {
    val keyCols = sig.keyPositions.map(i => col(s"c$i"))
    val aggCol = sig.op match {
      case AggOp.Min => min(col(s"c${sig.aggPos}"))
      case AggOp.Max => max(col(s"c${sig.aggPos}"))
      case other     => throw UnsupportedProgramException("RecStep",
        s"recursive aggregation requires MIN/MAX, got ${other.name}")
    }
    df.groupBy(keyCols: _*).agg(aggCol.as(s"c${sig.aggPos}"))
      .select(df.columns.indices.map(i => col(s"c$i")): _*)
  }
}
