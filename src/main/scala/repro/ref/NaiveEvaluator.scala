package repro.ref

import repro.datalog._
import scala.collection.mutable

/** Reference bottom-up naïve evaluator over in-memory sets of Long tuples.
  *
  * Deliberately simple and obviously correct: stratum by stratum, apply every
  * rule against the *full* current database until nothing changes. Negation
  * reads lower strata (validated by the [[Analyzer]]); recursive MIN/MAX
  * aggregation iterates group-merge until values stop improving. This is the
  * ground truth every engine (RecStep, BigDatalog-lite, Souffle-lite,
  * BDD-lite, Graspan-lite) is differentially tested against.
  */
object NaiveEvaluator {

  type Tuple = Vector[Long]
  type Db = Map[String, Set[Tuple]]

  /** Evaluate `program` over EDB `edb`; returns all IDB relations. */
  def evaluate(program: Program, edb: Db): Db = {
    val analysis = Analyzer.analyze(program)
    evaluate(analysis, edb)
  }

  def evaluate(analysis: Analyzer.Analysis, edb: Db): Db = {
    val db = mutable.Map.empty[String, Set[Tuple]]
    for (p <- analysis.edbs) db(p) = edb.getOrElse(p, Set.empty)
    for (p <- analysis.idbs) db(p) = Set.empty

    for (stratum <- analysis.strata) {
      if (stratum.recursiveAggs.nonEmpty) evalAggStratum(stratum, db)
      else evalSetStratum(stratum, db)
    }
    analysis.idbs.map(p => p -> db(p)).toMap
  }

  /** Plain set-semantics stratum: iterate all rules to fixpoint. */
  private def evalSetStratum(s: Analyzer.Stratum, db: mutable.Map[String, Set[Tuple]]): Unit = {
    var changed = true
    while (changed) {
      changed = false
      for (rule <- s.rules) {
        val derived = applyRule(rule, db)
        val existing = db(rule.head.pred)
        val fresh = derived -- existing
        if (fresh.nonEmpty) { db(rule.head.pred) = existing ++ fresh; changed = true }
      }
      if (!s.recursive) changed = false
    }
  }

  /** Recursive MIN/MAX aggregation stratum (CC/SSSP pattern): merge candidate
    * tuples group-wise until no group's value improves.
    */
  private def evalAggStratum(s: Analyzer.Stratum, db: mutable.Map[String, Set[Tuple]]): Unit = {
    var changed = true
    while (changed) {
      changed = false
      for ((pred, sig) <- s.recursiveAggs) {
        val candidates = s.rules.filter(_.head.pred == pred).flatMap(r => applyRule(r, db))
        val merged = mergeAgg(db(pred) ++ candidates, sig)
        if (merged != db(pred)) { db(pred) = merged; changed = true }
      }
      // non-aggregated IDBs sharing the stratum (not produced by benchmarks,
      // but handled for completeness)
      for (rule <- s.rules if !s.recursiveAggs.contains(rule.head.pred)) {
        val derived = applyRule(rule, db)
        val fresh = derived -- db(rule.head.pred)
        if (fresh.nonEmpty) { db(rule.head.pred) = db(rule.head.pred) ++ fresh; changed = true }
      }
      if (!s.recursive) changed = false
    }
  }

  /** Group-wise MIN/MAX merge keyed by the non-aggregated positions. */
  def mergeAgg(tuples: Iterable[Tuple], sig: Analyzer.AggSignature): Set[Tuple] = {
    val better: (Long, Long) => Long =
      if (sig.op == AggOp.Min) math.min else math.max
    tuples
      .groupBy(t => sig.keyPositions.map(t))
      .map { case (_, group) => group.reduce { (a, b) =>
        if (better(a(sig.aggPos), b(sig.aggPos)) == a(sig.aggPos)) a else b
      }}
      .toSet
  }

  /** Apply one rule against the full database, returning derived head tuples.
    * Backtracking join over positive atoms, then comparisons, negation, and
    * head projection (with non-recursive aggregation when the head has
    * aggregate terms outside a recursive-agg stratum handled by the caller —
    * here aggregation is applied group-wise over the produced bindings).
    */
  def applyRule(rule: Rule, db: collection.Map[String, Set[Tuple]]): Set[Tuple] = {
    val bindings = enumerate(rule, db)
    if (!rule.head.hasAgg) {
      bindings.map { b =>
        rule.head.terms.map { case HExpr(e) => e.eval(b); case HAgg(_, _) => sys.error("unreachable") }.toVector
      }.toSet
    } else {
      // group by key expressions, aggregate the single agg position per group
      val keyIdx = rule.head.keyPositions
      val rows = bindings.map { b =>
        rule.head.terms.map {
          case HExpr(e)    => e.eval(b)
          case HAgg(_, e)  => e.eval(b)
        }.toVector
      }
      val groups = rows.groupBy(t => keyIdx.map(t))
      groups.map { case (_, g) =>
        val tmpl = g.head
        val out = Array.copyOf(tmpl.toArray, tmpl.size)
        rule.head.terms.zipWithIndex.foreach {
          case (HAgg(op, _), i) =>
            val vals = g.map(_(i))
            out(i) = op match {
              case AggOp.Min   => vals.min
              case AggOp.Max   => vals.max
              case AggOp.Sum   => vals.foldLeft(0L)(Math.addExact) // raises on overflow, like Expr.eval
              case AggOp.Count => vals.size.toLong
              case AggOp.Avg   => vals.foldLeft(0L)(Math.addExact) / vals.size // integer semantics
            }
          case _ => ()
        }
        out.toVector
      }.toSet
    }
  }

  /** All satisfying bindings of the rule body. */
  private def enumerate(rule: Rule, db: collection.Map[String, Set[Tuple]]): Seq[Map[String, Long]] = {
    val positives = rule.positiveAtoms
    var partial: Seq[Map[String, Long]] = Seq(Map.empty)
    for (atom <- positives) {
      val rel = db.getOrElse(atom.pred, Set.empty)
      partial = partial.flatMap { b =>
        rel.iterator.flatMap(t => matchAtom(atom, t, b)).toSeq
      }
    }
    // comparisons
    partial = partial.filter(b => rule.comparisons.forall(c => c.op.holds(c.l.eval(b), c.r.eval(b))))
    // negation: no tuple of the negated relation matches under the binding
    partial.filter { b =>
      rule.negatedAtoms.forall { na =>
        val rel = db.getOrElse(na.pred, Set.empty)
        !rel.exists(t => matchAtom(na, t, b).isDefined)
      }
    }
  }

  /** Try to extend binding `b` by matching tuple `t` against `atom`. */
  private def matchAtom(atom: BAtom, t: Tuple, b: Map[String, Long]): Option[Map[String, Long]] = {
    if (t.size != atom.terms.size) return None
    var acc = b
    var i = 0
    while (i < t.size) {
      atom.terms(i) match {
        case Num(v) => if (t(i) != v) return None
        case Var(n) =>
          acc.get(n) match {
            case Some(v) => if (t(i) != v) return None
            case None    => acc = acc.updated(n, t(i))
          }
      }
      i += 1
    }
    Some(acc)
  }
}
