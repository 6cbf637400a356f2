package repro.baselines.souffle

import java.util.concurrent.{Callable, Executors, TimeUnit}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DatalogEngine, EngineCapabilities, UnsupportedProgramException}
import repro.datalog._
import repro.graphs.GraphData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Souffle-lite: a single-node, in-memory, parallel semi-naïve Datalog
  * engine in the style of Souffle [19] — tabular relations, on-demand hash
  * indexes per join pattern (Souffle's auto-index selection), and
  * parallelism over partitions of the delta relation.
  *
  * Capability profile matches the paper's Table 1 row for Souffle: mutual
  * recursion and stratified negation yes, non-recursive aggregation yes,
  * recursive aggregation no (CC/SSSP are rejected).
  */
final class SouffleLite(threads: Int = Runtime.getRuntime.availableProcessors())
    extends DatalogEngine {

  override def name: String = "Souffle-lite"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = true, nonRecursiveAggregation = true,
    recursiveAggregation = false, negation = true)

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)
    val inputs = analysis.edbs.map { p =>
      val df = edb.getOrElse(p, throw new IllegalArgumentException(s"missing EDB '$p'"))
      p -> df.collect().map(r => Array.tabulate(r.size)(i => r.getLong(i))).toSeq
    }.toMap
    val out = evaluateInMemory(analysis, inputs)
    out.map { case (p, tuples) =>
      p -> GraphData.tuplesToDF(spark, tuples.map(_.toVector), analysis.arities(p))
    }
  }

  /** Pure in-memory entry (used directly by differential tests). */
  def evaluateInMemory(program: Program, edb: Map[String, Seq[Array[Long]]]): Map[String, Seq[Array[Long]]] =
    evaluateInMemory(Analyzer.analyze(program), edb)

  def evaluateInMemory(
      analysis: Analyzer.Analysis,
      edb: Map[String, Seq[Array[Long]]],
  ): Map[String, Seq[Array[Long]]] = {
    if (analysis.hasRecursiveAggregation)
      throw UnsupportedProgramException(name, "recursive aggregation is not supported")

    val db = mutable.Map.empty[String, Relation]
    for (p <- analysis.edbs) {
      val rel = new Relation(analysis.arities(p))
      edb.getOrElse(p, Seq.empty).foreach(rel.add)
      db(p) = rel
    }
    for (p <- analysis.idbs) db(p) = new Relation(analysis.arities(p))

    for (s <- analysis.strata) evalStratum(s, db)
    analysis.idbs.map(p => p -> db(p).toSeq).toMap
  }

  // ----------------------------------------------------------- relations

  /** A tabular relation: dense tuple store + membership set + on-demand
    * hash indexes keyed by bound-column signature (built per version, i.e.
    * invalidated on insert — mirroring Souffle's per-stratum index builds).
    */
  private final class Relation(val arity: Int) {
    val tuples = new mutable.ArrayBuffer[Array[Long]]()
    private val members = new mutable.HashSet[TKey]()
    private val indexes = mutable.Map.empty[(Seq[Int], Int), mutable.HashMap[TKey, mutable.ArrayBuffer[Array[Long]]]]
    private var version = 0

    def size: Int = tuples.size
    def contains(t: Array[Long]): Boolean = members.contains(new TKey(t))
    def add(t: Array[Long]): Boolean = {
      val fresh = members.add(new TKey(t))
      if (fresh) { tuples += t; version += 1 }
      fresh
    }
    def toSeq: Seq[Array[Long]] = tuples.toSeq

    /** Hash index on `positions` over the current contents. */
    def index(positions: Seq[Int]): mutable.HashMap[TKey, mutable.ArrayBuffer[Array[Long]]] =
      indexes.getOrElseUpdate((positions, version), {
        val m = new mutable.HashMap[TKey, mutable.ArrayBuffer[Array[Long]]]()
        tuples.foreach { t =>
          val k = new TKey(positions.map(t).toArray)
          m.getOrElseUpdate(k, new mutable.ArrayBuffer[Array[Long]]()) += t
        }
        // drop stale versions for this signature
        indexes.keys.filter(k => k._1 == positions && k._2 != version).toSeq.foreach(indexes.remove)
        m
      })
  }

  private final class TKey(val a: Array[Long]) {
    override val hashCode: Int = java.util.Arrays.hashCode(a)
    override def equals(o: Any): Boolean = o match {
      case t: TKey => java.util.Arrays.equals(a, t.a)
      case _       => false
    }
  }

  // -------------------------------------------------------------- strata

  private def evalStratum(s: Analyzer.Stratum, db: mutable.Map[String, Relation]): Unit = {
    val idbs = s.preds.toSeq.sorted
    // iteration 1: naïve over full relations
    val deltas = mutable.Map.empty[String, Seq[Array[Long]]]
    for (p <- idbs) {
      val derived = s.rules.filter(_.head.pred == p).flatMap(r => evalRule(r, None, db, deltas = null))
      deltas(p) = derived.filter(db(p).add)
    }
    if (!s.recursive) return
    var iter = 1
    while (deltas.valuesIterator.exists(_.nonEmpty) && iter < 1_000_000) {
      iter += 1
      val snapshot = deltas.toMap
      for (p <- idbs) {
        val derived = for {
          rule <- s.rules.filter(_.head.pred == p)
          (atom, occ) <- rule.positiveAtoms.zipWithIndex
          if s.preds.contains(atom.pred) && snapshot(atom.pred).nonEmpty
          t <- evalRule(rule, Some(occ), db, snapshot)
        } yield t
        deltas(p) = derived.filter(db(p).add)
      }
    }
  }

  /** Evaluate one rule. With `deltaOcc` set, that atom occurrence scans the
    * snapshot delta; the scan of the first atom is partitioned across the
    * thread pool, each worker extending bindings through hash-index lookups.
    */
  private def evalRule(
      rule: Rule,
      deltaOcc: Option[Int],
      db: mutable.Map[String, Relation],
      deltas: collection.Map[String, Seq[Array[Long]]],
  ): Seq[Array[Long]] = {
    val positives = rule.positiveAtoms.zipWithIndex
    if (positives.isEmpty) return Seq(factTuple(rule))

    // scan order: the delta atom (or atom 0) first; remaining atoms greedily
    // by number of already-bound variables (Souffle's scheduling heuristic).
    val first = deltaOcc.map(o => positives(o)).getOrElse(positives.head)
    var remaining = positives.filterNot(_._2 == first._2)
    val order = mutable.ArrayBuffer(first)
    var bound = first._1.vars
    while (remaining.nonEmpty) {
      val next = remaining.maxBy { case (a, _) => a.vars.count(bound.contains) }
      order += next
      bound ++= next._1.vars
      remaining = remaining.filterNot(_._2 == next._2)
    }

    val firstScan: Seq[Array[Long]] = deltaOcc match {
      case Some(_) => deltas(first._1.pred)
      case None    => db(first._1.pred).toSeq
    }

    val chunks = partition(firstScan, threads)
    val pool = Executors.newFixedThreadPool(math.max(1, math.min(threads, chunks.size)))
    try {
      val tasks = chunks.map { chunk =>
        pool.submit(new Callable[Seq[Array[Long]]] {
          override def call(): Seq[Array[Long]] = {
            val out = new mutable.ArrayBuffer[Array[Long]]()
            var n = 0
            chunk.foreach { t =>
              n += 1
              if ((n & 0xFFF) == 0 && Thread.currentThread().isInterrupted)
                throw new RuntimeException(new InterruptedException("Souffle-lite interrupted"))
              bindAtom(order.head._1, t, Map.empty).foreach { b0 =>
                extend(order.toSeq.drop(1), b0, rule, db, out)
              }
            }
            out.toSeq
          }
        })
      }
      val bindings = tasks.flatMap(_.get())
      if (rule.head.hasAgg) aggregate(rule.head, bindings) else bindings
    } finally { pool.shutdownNow(); () } // interrupts stragglers on timeout
  }

  /** Depth-first extension of a binding through the remaining atoms. */
  private def extend(
      atoms: Seq[(BAtom, Int)],
      binding: Map[String, Long],
      rule: Rule,
      db: mutable.Map[String, Relation],
      out: mutable.ArrayBuffer[Array[Long]],
  ): Unit = {
    if (atoms.isEmpty) {
      if (checkCmps(rule, binding) && checkNegs(rule, binding, db)) out += headTuple(rule, binding)
      return
    }
    val (atom, _) = atoms.head
    val rel = db(atom.pred)
    val boundPos = atom.terms.zipWithIndex.collect {
      case (Num(_), i)                          => i
      case (Var(n), i) if binding.contains(n)   => i
    }
    val candidates: Iterable[Array[Long]] =
      if (boundPos.isEmpty) rel.toSeq
      else {
        val key = boundPos.map { i =>
          atom.terms(i) match { case Num(v) => v; case Var(n) => binding(n) }
        }.toArray
        rel.index(boundPos).getOrElse(new TKey(key), mutable.ArrayBuffer.empty)
      }
    candidates.foreach { t =>
      bindAtom(atom, t, binding).foreach(b => extend(atoms.tail, b, rule, db, out))
    }
  }

  private def bindAtom(atom: BAtom, t: Array[Long], b: Map[String, Long]): Option[Map[String, Long]] = {
    var acc = b
    var i = 0
    while (i < t.length) {
      atom.terms(i) match {
        case Num(v) => if (t(i) != v) return None
        case Var(n) => acc.get(n) match {
          case Some(v) => if (t(i) != v) return None
          case None    => acc = acc.updated(n, t(i))
        }
      }
      i += 1
    }
    Some(acc)
  }

  private def checkCmps(rule: Rule, b: Map[String, Long]): Boolean =
    rule.comparisons.forall(c => c.op.holds(c.l.eval(b), c.r.eval(b)))

  private def checkNegs(rule: Rule, b: Map[String, Long], db: mutable.Map[String, Relation]): Boolean =
    rule.negatedAtoms.forall { na =>
      val t = na.terms.map { case Num(v) => v; case Var(n) => b(n) }.toArray
      !db(na.pred).contains(t)
    }

  private def headTuple(rule: Rule, b: Map[String, Long]): Array[Long] =
    rule.head.terms.map {
      case HExpr(e)   => e.eval(b)
      case HAgg(_, e) => e.eval(b)
    }.toArray

  private def factTuple(rule: Rule): Array[Long] =
    rule.head.terms.map {
      case HExpr(ELit(v)) => v
      case t              => throw new IllegalArgumentException(s"fact head must be ground, got $t")
    }.toArray

  /** Non-recursive aggregation: group the (bag of) projected bindings. */
  private def aggregate(head: Head, rows: Seq[Array[Long]]): Seq[Array[Long]] = {
    val keyIdx = head.keyPositions
    rows.groupBy(t => keyIdx.map(t).toList).map { case (_, g) =>
      val out = g.head.clone()
      head.terms.zipWithIndex.foreach {
        case (HAgg(op, _), i) =>
          val vals = g.map(_(i))
          out(i) = op match {
            case AggOp.Min   => vals.min
            case AggOp.Max   => vals.max
            case AggOp.Sum   => vals.foldLeft(0L)(Math.addExact) // raises on overflow, like Expr.eval
            case AggOp.Count => vals.size.toLong
            case AggOp.Avg   => vals.foldLeft(0L)(Math.addExact) / vals.size
          }
        case _ => ()
      }
      out
    }.toSeq
  }

  private def partition[A](xs: Seq[A], k: Int): Seq[Seq[A]] =
    if (xs.isEmpty) Seq.empty
    else {
      val chunk = math.max(1, (xs.size + k - 1) / k)
      xs.grouped(chunk).toSeq
    }
}
