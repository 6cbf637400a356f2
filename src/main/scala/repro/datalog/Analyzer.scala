package repro.datalog

import scala.collection.mutable

/** Static analysis of a Datalog program (the paper's "rule analyzer", §4):
  * IDB/EDB split, safety checking, predicate dependency graph, Tarjan SCC,
  * stratification with topological ordering, validation of stratified
  * negation and aggregation, and classification of recursion
  * (linear / non-linear / mutual) used both by the engine and by baselines
  * that reject certain fragments (BigDatalog rejects mutual recursion,
  * Souffle rejects recursive aggregation).
  */
object Analyzer {

  final case class AnalysisException(msg: String) extends RuntimeException(msg)

  /** Shape of an IDB evaluated with monotone recursive aggregation:
    * group-key positions, the single aggregate position, and the operator.
    * CC's `cc3(y, MIN(z))` has keys=[0], aggPos=1, op=MIN.
    */
  final case class AggSignature(keyPositions: Seq[Int], aggPos: Int, op: AggOp)

  /** One stratum: the SCC's predicates, its rules, and its classification. */
  final case class Stratum(
      index: Int,
      preds: Set[String],
      rules: Seq[Rule],
      recursive: Boolean,
      /** IDBs of this stratum evaluated with recursive MIN/MAX semantics. */
      recursiveAggs: Map[String, AggSignature],
  ) {
    /** True if the SCC contains more than one predicate (mutual recursion). */
    def mutual: Boolean = recursive && preds.size > 1
    /** True if some recursive rule has >1 same-stratum IDB atom (non-linear). */
    def nonLinear: Boolean =
      rules.exists(r => r.positiveAtoms.count(a => preds.contains(a.pred)) > 1)
  }

  final case class Analysis(
      program: Program,
      idbs: Set[String],
      edbs: Set[String],
      /** Arity of every predicate. */
      arities: Map[String, Int],
      /** Strata in evaluation (topological) order. */
      strata: Seq[Stratum],
  ) {
    def hasMutualRecursion: Boolean = strata.exists(_.mutual)
    def hasNonLinearRecursion: Boolean = strata.exists(s => s.recursive && s.nonLinear)
    def hasRecursiveAggregation: Boolean = strata.exists(_.recursiveAggs.nonEmpty)
    def hasNonRecursiveAggregation: Boolean = strata.exists(s =>
      s.rules.exists(r => r.head.hasAgg && !s.recursiveAggs.contains(r.head.pred)))
    def hasNegation: Boolean = program.rules.exists(_.negatedAtoms.nonEmpty)
    def hasRecursion: Boolean = strata.exists(_.recursive)
  }

  /** Analyze `program`. Throws [[AnalysisException]] on unsafe rules,
    * arity mismatches, or unstratifiable negation/aggregation.
    */
  def analyze(program: Program): Analysis = {
    val idbs = program.idbPreds
    val edbs = program.edbPreds
    val arities = checkArities(program)
    program.rules.foreach(checkSafety)

    // Predicate-level dependency graph: edge p -> q if p occurs in the body
    // of a rule whose head is q.
    val idbList = idbs.toSeq.sorted
    val idx = idbList.zipWithIndex.toMap
    val adj = Array.fill(idbList.size)(mutable.Set.empty[Int])
    for (r <- program.rules; a <- r.body.collect { case a: BAtom => a } if idbs.contains(a.pred))
      adj(idx(a.pred)) += idx(r.head.pred)

    // Tarjan emits an SCC only after every SCC reachable from it, and edges
    // run from body to head, so the reversed emission order puts
    // dependencies first.
    val strata = tarjan(idbList.size, adj.map(_.toSet)).reverse.zipWithIndex.map { case (scc, stratumIdx) =>
      val preds = scc.map(idbList).toSet
      val rules = program.rules.filter(r => preds.contains(r.head.pred))
      val recursive = rules.exists(r => r.bodyPreds.exists(preds.contains))
      val recAggs = recursiveAggSignatures(preds, rules, recursive)
      Stratum(stratumIdx, preds, rules, recursive, recAggs)
    }

    val analysis = Analysis(program, idbs, edbs, arities, strata)
    validateStratifiedNegation(analysis)
    validateAggregation(analysis)
    analysis
  }

  /** Predicates must be used with one arity everywhere. */
  private def checkArities(program: Program): Map[String, Int] = {
    val arities = mutable.Map.empty[String, Int]
    def record(p: String, a: Int): Unit = arities.get(p) match {
      case Some(prev) if prev != a =>
        throw AnalysisException(s"predicate '$p' used with arities $prev and $a")
      case _ => arities(p) = a
    }
    for (r <- program.rules) {
      record(r.head.pred, r.head.arity)
      r.body.foreach { case BAtom(p, ts, _) => record(p, ts.size); case _ => () }
    }
    arities.toMap
  }

  /** Safety (§3.1): every head variable, every variable in a negated atom,
    * and every variable in a comparison must occur in a positive body atom.
    * Facts (empty body) must be ground.
    */
  private def checkSafety(r: Rule): Unit = {
    val pos = r.positiveVars
    val unsafeHead = r.headVars -- pos
    if (unsafeHead.nonEmpty)
      throw AnalysisException(s"unsafe rule (head vars ${unsafeHead.mkString(",")} unbound): $r")
    val unsafeNeg = r.negatedAtoms.flatMap(_.vars).toSet -- pos
    if (unsafeNeg.nonEmpty)
      throw AnalysisException(s"unsafe rule (negated vars ${unsafeNeg.mkString(",")} unbound): $r")
    val unsafeCmp = r.comparisons.flatMap(_.vars).toSet -- pos
    if (unsafeCmp.nonEmpty)
      throw AnalysisException(s"unsafe rule (comparison vars ${unsafeCmp.mkString(",")} unbound): $r")
  }

  /** Iterative Tarjan SCC; returns SCCs (each a list of vertex ids). */
  private[datalog] def tarjan(n: Int, adj: IndexedSeq[Set[Int]]): Vector[Vector[Int]] = {
    val indexOf = Array.fill(n)(-1)
    val lowlink = Array.fill(n)(0)
    val onStack = Array.fill(n)(false)
    val stack = mutable.Stack.empty[Int]
    var counter = 0
    val out = Vector.newBuilder[Vector[Int]]

    for (root <- 0 until n if indexOf(root) < 0) {
      // explicit call stack: (vertex, iterator over successors)
      val call = mutable.Stack.empty[(Int, Iterator[Int])]
      def push(v: Int): Unit = {
        indexOf(v) = counter; lowlink(v) = counter; counter += 1
        stack.push(v); onStack(v) = true
        call.push((v, adj(v).iterator))
      }
      push(root)
      while (call.nonEmpty) {
        val (v, it) = call.top
        if (it.hasNext) {
          val w = it.next()
          if (indexOf(w) < 0) push(w)
          else if (onStack(w)) lowlink(v) = math.min(lowlink(v), indexOf(w))
        } else {
          call.pop()
          if (call.nonEmpty) {
            val (parent, _) = call.top
            lowlink(parent) = math.min(lowlink(parent), lowlink(v))
          }
          if (lowlink(v) == indexOf(v)) {
            val scc = Vector.newBuilder[Int]
            var w = -1
            while (w != v) { w = stack.pop(); onStack(w) = false; scc += w }
            out += scc.result()
          }
        }
      }
    }
    out.result()
  }

  /** A negated IDB atom must refer to a strictly lower stratum (§3.3). */
  private def validateStratifiedNegation(a: Analysis): Unit = {
    val stratumOf = a.strata.flatMap(s => s.preds.map(_ -> s.index)).toMap
    for {
      s <- a.strata
      r <- s.rules
      neg <- r.negatedAtoms
      if a.idbs.contains(neg.pred)
    } if (stratumOf(neg.pred) >= s.index)
      throw AnalysisException(s"negation of '${neg.pred}' is not stratified in rule: $r")
  }

  /** Recursive aggregation: only monotone MIN/MAX over a single aggregate
    * position, all rules of the IDB sharing one signature.
    */
  private def recursiveAggSignatures(
      preds: Set[String],
      rules: Seq[Rule],
      recursive: Boolean,
  ): Map[String, AggSignature] = {
    if (!recursive) return Map.empty
    val aggIdbs = rules.filter(_.head.hasAgg).map(_.head.pred).distinct
    aggIdbs.map { p =>
      val prules = rules.filter(_.head.pred == p)
      val sigs = prules.map { r =>
        if (!r.head.hasAgg)
          throw AnalysisException(s"IDB '$p' mixes aggregated and plain heads in a recursive stratum")
        val aggPositions = r.head.aggPositions
        if (aggPositions.size != 1)
          throw AnalysisException(s"IDB '$p': exactly one aggregate term supported, got ${aggPositions.size}")
        val op = r.head.terms(aggPositions.head).asInstanceOf[HAgg].op
        if (!AggOp.monotone(op))
          throw AnalysisException(s"IDB '$p': recursive aggregation requires MIN/MAX, got ${op.name}")
        AggSignature(r.head.keyPositions, aggPositions.head, op)
      }.distinct
      if (sigs.size != 1)
        throw AnalysisException(s"IDB '$p': all rules must share one aggregate signature, got $sigs")
      p -> sigs.head
    }.toMap
  }

  /** Non-recursive aggregation over a same-stratum recursive IDB without a
    * monotone signature is rejected; aggregated bodies must read lower strata.
    */
  private def validateAggregation(a: Analysis): Unit = {
    val stratumOf = a.strata.flatMap(s => s.preds.map(_ -> s.index)).toMap
    for {
      s <- a.strata
      r <- s.rules
      if r.head.hasAgg && !s.recursiveAggs.contains(r.head.pred)
      atom <- r.positiveAtoms
      if a.idbs.contains(atom.pred)
    } if (stratumOf(atom.pred) >= s.index)
      throw AnalysisException(
        s"non-recursive aggregation in '$r' reads same-stratum predicate '${atom.pred}'")
  }
}
