package repro.core

import java.nio.file.Files
import org.apache.commons.io.FileUtils
import org.apache.spark.repro.SparkInternals
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.datalog._
import repro.pbme.{ChainEvaluator, Pbme, PbmeMatcher}
import scala.collection.mutable

/** RecStep: the paper's Datalog engine (§4, Algorithm 1) with Spark's
  * Catalyst/DataFrame layer playing the role of QuickStep.
  *
  * Evaluation is stratified semi-naïve. Within a recursive stratum,
  * iteration 1 applies every rule naïvely over the full relations; from
  * iteration 2 on, only recursive rules run, one delta-subquery per
  * same-stratum IDB atom occurrence (deltas are snapshotted at iteration
  * start — synchronous semi-naïve). Each iteration then performs, per IDB,
  * uieval (UNION ALL of its subqueries) followed by the IDB's merge step.
  * For set-semantics IDBs that is dedup (UNION ALL + separate dedup, §4),
  * set difference (DSD, §5.1) and merge — exactly Algorithm 1 lines 8–13.
  *
  * IDBs that carry monotone MIN/MAX heads (CC/SSSP) differ only in the merge
  * step: candidates are merged group-wise and the delta is the set of
  * strictly-improved rows.
  *
  * Every §5 optimization is an independent switch on [[RecStepConf]]; the
  * statistics-driven decisions of OOF are taken by [[OofPolicy]]. See
  * DESIGN.md for the mechanism mapping.
  */
final class RecStepEngine(conf: RecStepConf = RecStepConf.default) extends DatalogEngine {

  override def name: String = "RecStep"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = true, nonRecursiveAggregation = true,
    recursiveAggregation = true, negation = true)

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)

    // PBME (§5.3): bit-matrix evaluation over a small active domain, by the
    // TC kernel for TC, and otherwise by the chain evaluator for any
    // chain-shaped program, SG included. Where either declines, the
    // relational path runs.
    if (conf.pbme) {
      val result = PbmeMatcher.matchProgram(analysis) match {
        case Some(tc: PbmeMatcher.TcShape) => Pbme.tryEvaluate(tc, edb, conf.pbmeMaxVertices)
        case _ => ChainEvaluator.tryEvaluate(analysis, edb, conf.pbmeMaxVertices, conf.maxIterations).toOption
      }
      result.foreach(return _)
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
    * disjoint from R by construction), the id of the key set that holds
    * R's keys while its stratum runs (packed IDBs under DSD), and OOF
    * bookkeeping (the previous dedup's size as the next one's estimate:
    * |R_t| where dedup inserts into a key set, |R_δ| under generic dedup;
    * previous μ for the DSD model).
    */
  private final class RelState(val arity: Int) {
    var pieces: Vector[DataFrame] = Vector.empty
    var rows: Long = 0L
    var delta: DataFrame = emptyRel(arity)
    var deltaRows: Long = 0L
    var keySet: Option[Long] = None
    var prevDedupRows: Long = 0L
    var mu: Double = 10.0
    def full: DataFrame = if (pieces.isEmpty) emptyRel(arity) else pieces.reduce(_ union _)
    /** Every materialization the state still reads. */
    def held: Vector[DataFrame] = pieces :+ delta
  }

  private val rels = mutable.Map.empty[String, RelState]
  private val oof = new OofPolicy(conf, spark.conf.get("spark.sql.shuffle.partitions").toInt,
    spark.sparkContext.defaultParallelism)
  /** The set IDBs that dedup by inserting into a key set ([[KeySets]]):
    * those whose tuples CCK packs, when FAST-DEDUP is on and the master runs
    * every task once, in this JVM. Set once the EDBs are loaded.
    */
  private var packs: Set[String] = Set.empty
  /** Materializations this iteration made and no relation holds: R_δ
    * materialized for TPSD, and UIE off's per-subquery results.
    */
  private val superseded = mutable.ArrayBuffer.empty[DataFrame]

  def run(): Map[String, DataFrame] = {
    val sc = spark.sparkContext
    // Without EOST every materialization is a reliable checkpoint. A caller's
    // checkpoint dir is used as it is; otherwise this evaluation owns a
    // temporary one and leaves the session as it found it.
    val ownDir = if (conf.eost || sc.getCheckpointDir.isDefined) None
      else Some(Files.createTempDirectory("recstep-ckpt").toFile)
    ownDir.foreach(d => sc.setCheckpointDir(d.toString))
    // A run that fails, at the iteration cap or on an interrupt, also drops
    // every RDD it cached.
    try SparkInternals.releasingOnFailure(sc, "RecStep evaluation") {
      val edbBound = loadEdbs()
      if (conf.fastDedup && KeySets.supports(sc.master)) packs = Dedup.packable(analysis, edbBound)
      for (p <- analysis.idbs) rels(p) = new RelState(analysis.arities(p))
      analysis.strata.foreach(evalStratum)
      val full = analysis.idbs.map(p => p -> rels(p).full).toMap
      // The checkpoint files are deleted with the dir: pin the results first.
      val out = if (ownDir.isEmpty) full else full.map { case (p, df) => p -> df.localCheckpoint() }
      // No result reads the loaded copies of the EDBs.
      analysis.edbs.foreach(rels(_).pieces.foreach(Materialize.release))
      out
    } finally {
      // Also on an exception or an interrupt: no key set outlives the run.
      rels.valuesIterator.flatMap(_.keySet).foreach(KeySets.release)
      ownDir.foreach { d =>
        sc.setCheckpointDir(null)
        FileUtils.deleteDirectory(d)
      }
    }
  }

  // -------------------------------------------------------------- loading

  /** Pins every EDB and returns the bound of their values for CCK packing:
    * the largest, or `Long.MaxValue` if one is negative.
    */
  private def loadEdbs(): Long = {
    var bound = 0L
    for (p <- analysis.edbs) {
      val df = edbInput.getOrElse(p,
        throw new IllegalArgumentException(s"missing EDB relation '$p'"))
      val named = df.toDF(df.columns.indices.map(i => s"c$i"): _*)
      // One job pins the input in memory (regardless of EOST — loading is not
      // part of the evaluation transaction) and takes its initial analyze():
      // the row count and every column's min and max.
      val stats = new Materialize.Counter(named,
        (named.columns.map(c => min(col(c))) ++ named.columns.map(c => max(col(c)))).toIndexedSeq: _*)
      val st = new RelState(analysis.arities(p))
      st.pieces = Vector(stats.observed.localCheckpoint())
      val m = stats.metrics
      st.rows = m.getLong(0)
      rels(p) = st
      if (st.rows > 0) {
        val vals = (1 until m.size).map(i => if (m.isNullAt(i)) 0L else m.getLong(i))
        bound = if (vals.min < 0) Long.MaxValue else math.max(bound, vals.max)
      }
    }
    bound
  }

  private def emptyRel(arity: Int): DataFrame =
    spark.range(0).select((0 until arity).map(i => col("id").as(s"c$i")): _*)

  /** EOST: in-memory materialization only; otherwise each materialization is
    * a committed write (reliable disk checkpoint), as per-query transaction
    * semantics would force.
    */
  private def materialize(df: DataFrame): DataFrame =
    if (conf.eost) df.localCheckpoint() else df.checkpoint()

  /** [[materialize]], also returning the rows' count, taken in the same job. */
  private def materializeCounted(df: DataFrame): (DataFrame, Long) = Materialize(df, reliable = !conf.eost)

  // ------------------------------------------------------------- resolvers

  /** The relation at one atom occurrence, Δ or full. Occurrences that take
    * part in a join get OOF's build-side hint; elsewhere it would mean nothing.
    */
  private def relation(pred: String, useDelta: Boolean, joined: Boolean): DataFrame = {
    val st = rels(pred)
    val (df, rows) = if (useDelta) (st.delta, st.deltaRows) else (st.full, st.rows)
    if (joined) oof.hint(df, rows, !useDelta && analysis.edbs.contains(pred)) else df
  }

  /** Compile `rule` with Δ substituted at one designated same-stratum atom
    * occurrence (none for iteration 1's naïve pass). Its atoms take part in a
    * join, or anti-join, when the body has two or more of them.
    */
  private def compile(rule: Rule, deltaOccurrence: Int): DataFrame = {
    val joined = rule.positiveAtoms.size + rule.negatedAtoms.size > 1
    PlanGenerator.compileRule(rule, (atom, occ) => relation(atom.pred, occ == deltaOccurrence, joined))
  }

  // -------------------------------------------------------- stratum loop

  /** The semi-naïve loop of one stratum: each iteration runs uieval and
    * then the merge step of every IDB (set, or MIN/MAX for recursive
    * aggregates), or, where OOF takes the small-Δ driver tier, the whole
    * iteration on the driver.
    */
  private def evalStratum(s: Stratum): Unit = {
    if (s.recursiveAggs.nonEmpty && !s.preds.forall(s.recursiveAggs.contains))
      throw UnsupportedProgramException("RecStep",
        s"stratum mixes aggregated and plain IDBs: ${s.preds.mkString(", ")}")
    val idbs = s.preds.toSeq.sorted
    if (conf.dsd) for (p <- idbs if packs(p)) rels(p).keySet = Some(KeySets.open())
    val tierFits = oof.driverTier && fitsDriverTier(s)
    var tier = Option.empty[DriverTier] // made on first use
    var iteration = 0
    var anyDelta = true
    while (anyDelta && iteration < conf.maxIterations) {
      iteration += 1
      val held = idbs.flatMap(rels(_).held)
      anyDelta =
        if (iteration > 1 && tierFits && oof.onDriver(idbs.map(rels(_).deltaRows).sum)) {
          if (tier.isEmpty) tier = Some(new DriverTier(s, fixedRelation))
          driverIteration(tier.get, idbs)
        } else {
          tier.foreach(handOff(_, idbs))
          sparkIteration(s, idbs, iteration)
        }
      release(idbs, held)
      if (!s.recursive) anyDelta = false
    }
    // Fail if the loop stopped at the iteration cap with facts still pending;
    // otherwise leave no stale deltas or key sets behind for later strata.
    if (anyDelta) throw IterationLimitException("RecStep", idbs, conf.maxIterations)
    tier.foreach(handOff(_, idbs))
    val held = idbs.flatMap(rels(_).held)
    idbs.foreach { p =>
      val st = rels(p)
      st.delta = emptyRel(st.arity)
      st.deltaRows = 0
      st.keySet.foreach(KeySets.release)
      st.keySet = None
    }
    release(idbs, held)
  }

  /** One iteration on Spark; returns whether some IDB has a non-empty Δ. */
  private def sparkIteration(s: Stratum, idbs: Seq[String], iteration: Int): Boolean = {
    // Every IDB's subqueries are planned before any merge step replaces a
    // relation, so all of them read the iteration-start state (synchronous
    // semi-naïve). In iteration 1 the stratum's own IDBs are empty, so a
    // rule that reads one derives nothing and is not planned.
    val subqueries = for (pred <- idbs) yield pred -> (
      if (iteration == 1)
        s.rules.filter(r => r.head.pred == pred && !r.positiveAtoms.exists(a => s.preds(a.pred))).map(compile(_, -1))
      else deltaSubqueries(s, pred))
    var anyDelta = false
    for ((pred, sq) <- subqueries) {
      val st = rels(pred)
      if (sq.isEmpty) { st.delta = emptyRel(st.arity); st.deltaRows = 0 }
      else s.recursiveAggs.get(pred) match {
        case Some(sig) => aggMerge(st, sig, uieval(sq))
        case None      => setMerge(pred, st, uieval(sq))
      }
      if (st.deltaRows > 0) anyDelta = true
      if (oof.compacts(st.pieces.size)) st.pieces = Vector(materialize(st.full))
    }
    anyDelta
  }

  // ------------------------------------------------------ small-Δ driver tier

  /** Can the driver tier run this stratum's iterations? Its recursion is
    * linear (mutual recursion allowed), it has no aggregates, every IDB
    * keeps its keys in a stratum-long key set, and every other atom reads a
    * fixed relation small enough to broadcast, which the tier collects.
    */
  private def fitsDriverTier(s: Stratum): Boolean = {
    val rules = s.rules
    s.recursive && s.recursiveAggs.isEmpty && !rules.exists(_.head.hasAgg) &&
      s.preds.forall(rels(_).keySet.isDefined) &&
      rules.forall(_.positiveAtoms.count(a => s.preds(a.pred)) <= 1) &&
      rules.forall(_.body.forall {
        case a: BAtom => s.preds(a.pred) || rels(a.pred).rows <= OofPolicy.BroadcastRows
        case _        => true
      })
  }

  /** Fixed relations collected to the driver, each once per evaluation. */
  private val fixed = mutable.Map.empty[String, DriverTier.Relation]

  private def fixedRelation(pred: String): DriverTier.Relation =
    fixed.getOrElseUpdate(pred, DriverTier.Relation(rels(pred).full.collect(), rels(pred).arity))

  /** One iteration on the driver. A Δ that a Spark iteration left is
    * collected first, as its keys. Returns whether some IDB has a non-empty Δ.
    */
  private def driverIteration(tier: DriverTier, idbs: Seq[String]): Boolean = {
    for (p <- idbs if rels(p).deltaRows > 0 && !tier.holds(p)) {
      val st = rels(p)
      tier.enter(p, st.delta.select(Dedup.packExpr(st.arity)).collect().map(_.getLong(0)))
      st.delta = emptyRel(st.arity) // R's pieces still hold it
    }
    val produced = tier.iterate(p => KeySets.lookup(rels(p).keySet.get))
    for (p <- idbs) {
      val st = rels(p)
      st.deltaRows = tier.deltaRows(p)
      st.rows += st.deltaRows
      st.prevDedupRows = produced(p)
    }
    idbs.exists(rels(_).deltaRows > 0)
  }

  /** Hands the keys the tier derived back to Spark: those before Δ become
    * one piece of R, and a Δ the tier derived becomes another, which the
    * next Spark iteration reads as Δ.
    */
  private def handOff(tier: DriverTier, idbs: Seq[String]): Unit =
    for (p <- idbs if tier.holds(p)) {
      val st = rels(p)
      val (older, delta) = tier.leave(p)
      if (older.nonEmpty) st.pieces :+= keysPiece(older, st.arity)
      if (delta.nonEmpty) {
        st.delta = keysPiece(delta, st.arity)
        st.pieces :+= st.delta
      }
    }

  /** Driver-side keys as a materialized relation: one job. */
  private def keysPiece(keys: Array[Long], arity: Int): DataFrame = {
    import spark.implicits._
    val rdd = spark.sparkContext.parallelize(scala.collection.immutable.ArraySeq.unsafeWrapArray(keys),
      oof.insertPartitions(keys.length))
    materialize(rdd.toDF("ck").select(Dedup.unpackExprs(arity, col("ck")): _*))
  }

  /** Frees the materializations in `before`, and this iteration's
    * [[superseded]] ones, that no relation of `idbs` holds any more. It runs
    * only after every merge step of the iteration: an IDB's subqueries are
    * planned at iteration start and may read a relation that an earlier
    * merge step of the same iteration replaced.
    */
  private def release(idbs: Seq[String], before: Seq[DataFrame]): Unit = {
    val now = idbs.flatMap(rels(_).held)
    (before ++ superseded).distinct.filterNot(d => now.exists(_ eq d)).foreach(Materialize.release)
    superseded.clear()
  }

  /** One delta-subquery per (recursive rule, same-stratum atom occurrence). */
  private def deltaSubqueries(s: Stratum, pred: String): Seq[DataFrame] =
    for {
      rule <- s.rules.filter(_.head.pred == pred)
      (atom, occ) <- rule.positiveAtoms.zipWithIndex
      if s.preds.contains(atom.pred)
      if rels(atom.pred).deltaRows > 0 // empty delta contributes nothing
    } yield compile(rule, occ)

  /** uieval (Algorithm 1 line 9): the UNION ALL of one IDB's subqueries, a
    * single plan under UIE, separately materialized per subquery otherwise.
    */
  private def uieval(subqueries: Seq[DataFrame]): DataFrame =
    if (conf.uie) subqueries.reduce(_ union _)
    else {
      val parts = subqueries.map(materialize) // one job per subquery
      superseded ++= parts
      parts.reduce(_ union _)
    }

  // ---------------------------------------------------------- merge steps

  /** Set merge step (Algorithm 1 lines 10–13): dedup, analyze, set
    * difference, and ΔR appended to R as a new piece. One of three paths:
    *  1. packed tuples under DSD: R_t's keys go into R's key set, kept for
    *     the stratum, so the one insert pass is dedup and R_δ − R;
    *  2. packed tuples with DSD off: the keys go into a set opened for this
    *     iteration, and OPSD takes R_δ − R in the same plan;
    *  3. other tuples: generic dedup, then DSD.
    */
  private def setMerge(pred: String, st: RelState, rt: DataFrame): Unit = {
    val (delta, deltaRows) = if (packs(pred)) {
      val id = st.keySet.getOrElse(KeySets.open())
      try {
        // R_t is coalesced to OOF's partitions, sized from the previous
        // |R_t|, which the job also counts: without the dedup's exchange,
        // the partitions of the rule joins' output would add up.
        val in = new Materialize.Counter(rt)
        val rDelta = KeySets.insertFresh(in.observed, id, oof.insertPartitions(st.prevDedupRows))
        val out = if (st.keySet.isDefined) analyzed(materializeCounted(rDelta)) else dsd(st, rDelta)._1
        st.prevDedupRows = in.rows
        out
      } finally if (st.keySet.isEmpty) KeySets.release(id)
    } else {
      // dedup(R_t): partitions are sized from the previous R_δ (OOF's
      // conservative approximation).
      val (out, rDeltaRows) = dsd(st, Dedup.generic(rt, oof.dedupPartitions(st.prevDedupRows)))
      st.prevDedupRows = rDeltaRows
      out
    }
    st.delta = delta
    st.deltaRows = deltaRows
    if (deltaRows > 0) st.pieces :+= delta
    st.rows += deltaRows
  }

  /** OOF-FA's full analyze of a materialization, which it passes through. */
  private def analyzed(m: (DataFrame, Long)): (DataFrame, Long) = { oof.fullAnalyze(m._1); m }

  /** DSD (Algorithm 1 lines 11–12): ΔR ← R_δ − R, materialized with its
    * count, and |R_δ|. analyze(R_δ, R): |R| is tracked incrementally, and
    * |R_δ| and |ΔR| are counted by the jobs that materialize them. The next
    * iteration's μ = |R_δ| / |R ∩ R_δ| follows, as |R ∩ R_δ| = |R_δ| − |ΔR|.
    * ΔR keeps the dedup's partitioning, which OOF sized from the previous
    * dedup.
    */
  private def dsd(st: RelState, rDelta: DataFrame): ((DataFrame, Long), Long) = {
    val (out, rdRows) = if (oof.tpsdPossible(st.prevDedupRows)) {
      // TPSD reads R_δ twice and DSD needs its exact size: materialize it.
      val (rd, rdRows) = analyzed(materializeCounted(rDelta))
      superseded += rd
      val diff =
        if (st.rows == 0 || rdRows == 0) rd // R_δ − ∅ = R_δ; ∅ − R = ∅
        else if (oof.useTpsd(st.rows, rdRows, st.mu))
          SetDifference.tpsd(rd, st.full, st.rows, rdRows, OofPolicy.BroadcastRows)._1
        else SetDifference.opsd(rd, st.full, st.rows, OofPolicy.BroadcastRows)
      (materializeCounted(diff), rdRows)
    } else {
      // OPSD: dedup and the anti-join are one plan and one job, which also
      // counts R_δ.
      val rd = new Materialize.Counter(rDelta)
      val out = analyzed(materializeCounted(
        if (st.rows == 0) rd.observed // R_δ − ∅ = R_δ
        else SetDifference.opsd(rd.observed, st.full, st.rows, OofPolicy.BroadcastRows)))
      (out, rd.rows)
    }
    st.mu = rdRows.toDouble / math.max(1L, rdRows - out._2)
    (out, rdRows)
  }

  /** MIN/MAX merge step: candidates (already per-rule aggregated by the plan
    * generator) are merged group-wise with R, and the merged relation
    * replaces R's pieces; ΔR = strictly-improved rows.
    */
  private def aggMerge(st: RelState, sig: AggSignature, cand: DataFrame): Unit = {
    val (merged, mergedRows) = materializeCounted(mergeAgg(st.full.union(cand), sig))
    // improved rows: in merged but not in old R (keys are unique per side,
    // so an all-column anti-join captures both new keys and better values).
    val (delta, deltaRows) = materializeCounted(
      SetDifference.opsd(merged, st.full, st.rows, OofPolicy.BroadcastRows))
    st.delta = delta
    st.deltaRows = deltaRows
    st.pieces = Vector(merged)
    st.rows = mergedRows
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

/** OOF (Optimization On the Fly, §5.1): every decision RecStep takes from
  * relation statistics. Under OOF-NA the statistics are frozen at load time,
  * so only EDBs are sized by them and every decision that needs fresh IDB
  * statistics falls back to its fixed choice. Under OOF-FA all statistics of
  * every updated table are also recollected, which is pure overhead.
  *
  * `shufflePartitions` is the partition budget (the paper's core count
  * analog), taken from the session's `spark.sql.shuffle.partitions`.
  */
private final class OofPolicy(conf: RecStepConf, shufflePartitions: Int, parallelism: Int) {
  import OofPolicy._

  private val adaptive = conf.oof != OofMode.NoAnalyze

  /** Partitions of the key-set insert pass: the dedup's, sized from the
    * previous |R_t|, and at least the session's parallelism.
    */
  def insertPartitions(prevRtRows: Long): Int = math.max(dedupPartitions(prevRtRows), parallelism)

  /** Wrap a relation in a broadcast hint when its stats say it is small
    * enough to be the hash-build side. Under OOF-NA only EDBs (whose stats
    * exist from load time) are ever hinted — IDB stats are never refreshed.
    */
  def hint(df: DataFrame, rows: Long, isEdb: Boolean): DataFrame =
    if ((adaptive || isEdb) && rows <= BroadcastRows) broadcast(df) else df

  /** Dedup partitions sized from the previous R_δ; fixed under OOF-NA. */
  def dedupPartitions(prevRdeltaRows: Long): Int =
    if (adaptive) partsFor(math.max(prevRdeltaRows, 1024L)) else shufflePartitions

  /** OOF-FA: recollect *all* stats on every updated table — the overhead arm
    * of Figure 2 (the results are computed and discarded).
    */
  def fullAnalyze(df: DataFrame): Unit =
    if (conf.oof == OofMode.FullAnalyze) {
      val aggs = df.columns.flatMap(c =>
        Seq(min(col(c)), max(col(c)), approx_count_distinct(col(c)), avg(col(c))))
      df.agg(aggs.head, aggs.tail.toIndexedSeq: _*).collect()
    }

  /** Can DSD pick TPSD this iteration? Only then is R_δ materialized on its
    * own (TPSD reads it twice); otherwise dedup and OPSD run as one plan.
    * The choice needs fresh stats (not under OOF-NA), and it keeps OPSD for
    * an R_δ below [[SmallDeltaRows]], judged here by the previous
    * iteration's.
    */
  def tpsdPossible(prevRdeltaRows: Long): Boolean = conf.dsd && adaptive && prevRdeltaRows >= SmallDeltaRows

  /** DSD's choice between TPSD and OPSD for R_δ − R, once TPSD is possible. */
  def useTpsd(rRows: Long, rDeltaRows: Long, mu: Double): Boolean =
    // tiny R_δ: either translation finishes instantly, but TPSD's extra join
    // would dominate — keep the one-shot plan
    if (rDeltaRows < SmallDeltaRows) false
    else SetDifference.decide(rRows, rDeltaRows, Alpha, mu).useTpsd

  /** Every §5 switch on: only then may a stratum's iterations run on the
    * driver tier, so every Figure-2 arm that turns one off measures the
    * relational path alone.
    */
  val driverTier: Boolean =
    conf.uie && conf.oof == OofMode.Adaptive && conf.dsd && conf.eost && conf.fastDedup

  /** Does an iteration whose IDBs start with `deltaRows` Δ tuples in all run
    * on the driver tier (once its stratum fits it)?
    */
  def onDriver(deltaRows: Long): Boolean = deltaRows <= DriverDeltaRows

  /** Compact the union-of-deltas once it grows past [[CompactEvery]] pieces
    * so plan size stays bounded across hundreds of iterations.
    */
  def compacts(pieces: Int): Boolean = pieces >= CompactEvery

  private def partsFor(rows: Long): Int =
    math.max(1, math.min(shufflePartitions, (rows / 100_000L).toInt + 1))
}

private object OofPolicy {
  /** Build/probe cost ratio α for the DSD cost model (Appendix A): a
    * hand-set constant. It has not been calibrated against the two Spark
    * plans DSD chooses between (`SetDifference.opsd` and `tpsd`); at 2.0,
    * TPSD is chosen once β ≥ 2α/(α−1) = 4.
    */
  val Alpha: Double = 2.0
  /** Rows below which a relation side is broadcast (hash-build side). */
  val BroadcastRows: Long = 1_500_000L
  /** Below this R_δ size TPSD and the separate materialization of R_δ it
    * needs cannot pay for their own per-query overhead (appendix C's caveat
    * on OOF's extra queries), so dynamic DSD keeps the one-shot OPSD.
    */
  val SmallDeltaRows: Long = 65_536L
  /** The largest Σ|Δ| of an iteration that runs on the driver tier.
    * Measured on a 4-core host: one TC iteration (Δ ⋈ arc, then the key-set
    * insert) with random 2-hop pairs as Δ, medians of 9, the driver tier
    * against the Spark plan of the key-set merge step:
    *  - `erdosRenyi(4000, 0.001)`: 0.7 vs 138 ms at |Δ| = 1,024; 3.5 vs
    *    138 ms at 4,096; 9 vs 175 ms at 16,384;
    *  - `rmat(8192, 81920)`: 6.6 vs 125 ms at 1,024; 41 vs 161 ms at 4,096;
    *    590 vs 977 ms at 65,536.
    * The two costs meet beyond 65,536. The bound sits far short of that,
    * where a driver iteration costs at most a twentieth of a Spark one on
    * either graph: the tier runs on one thread and holds Δ and R's new keys
    * on the driver heap, and a low bound keeps a skewed fan-out from making
    * it the slower choice.
    */
  val DriverDeltaRows: Long = 1024L
  /** Compact the growing union-of-deltas plan every this many iterations. */
  val CompactEvery: Int = 24
}
