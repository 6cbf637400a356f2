package repro.baselines.graspan

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DatalogEngine, EngineCapabilities, UnsupportedProgramException}
import repro.datalog.{Analyzer, ChainRules, Program}
import repro.datalog.ChainRules._
import repro.graphs.GraphData
import scala.collection.mutable

/** Graspan-lite: a worklist-based edge-pair engine in the style of
  * Graspan [25] — the program is a context-free grammar over a labeled
  * graph, and the fixpoint repeatedly pops a newly derived edge and joins
  * it against the adjacency of its endpoints to complete grammar
  * productions (chains of length 1–3, with reversed-edge support for the
  * inverse terminals CSPA needs).
  *
  * Per the paper it is restricted to binary relations (graphs): unary
  * atoms, aggregation, negation, and non-chain joins are rejected. It
  * processes one edge at a time from a global worklist — the
  * low-CPU-utilization design Table 4 quantifies.
  */
final class GraspanLite extends DatalogEngine {

  override def name: String = "Graspan-lite"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = true, nonRecursiveAggregation = false,
    recursiveAggregation = false, negation = false)

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)
    if (analysis.arities.valuesIterator.exists(_ != 2))
      throw UnsupportedProgramException(name, "only binary relations (graphs) are supported")
    val inputs = analysis.edbs.map { p =>
      val df = edb.getOrElse(p, throw new IllegalArgumentException(s"missing EDB '$p'"))
      p -> df.collect().map(r => (r.getLong(0), r.getLong(1))).toVector
    }.toMap
    val out = evaluateInMemory(program, inputs)
    out.map { case (p, edges) =>
      p -> GraphData.tuplesToDF(spark, edges.map(e => Vector(e._1, e._2)), 2)
    }
  }

  /** Pure in-memory entry (used directly by differential tests). */
  def evaluateInMemory(
      program: Program, edb: Map[String, Vector[(Long, Long)]]): Map[String, Vector[(Long, Long)]] = {
    val analysis = Analyzer.analyze(program)
    if (analysis.arities.valuesIterator.exists(_ != 2))
      throw UnsupportedProgramException(name, "only binary relations (graphs) are supported")
    val grammar = ChainRules.extract(program, analysis.arities) match {
      case Right(g)  => g.collect {
        case c: BinaryChain => c
        case s: SelfLoop    => s
        case other => throw UnsupportedProgramException(name, s"unsupported rule shape: $other")
      }
      case Left(err) => throw UnsupportedProgramException(name, err)
    }
    if (grammar.exists { case BinaryChain(_, _, true) => true; case _ => false })
      throw UnsupportedProgramException(name, "inequality guards are not CFG productions")

    run(analysis, grammar, edb)
  }

  private type Adj = mutable.HashMap[Long, mutable.HashSet[Long]]

  private final class LabelGraph {
    val out: Adj = new Adj
    val in: Adj = new Adj
    def add(u: Long, v: Long): Boolean = {
      val fresh = out.getOrElseUpdate(u, new mutable.HashSet[Long]()).add(v)
      if (fresh) in.getOrElseUpdate(v, new mutable.HashSet[Long]()).add(u)
      fresh
    }
    def succ(u: Long, reversed: Boolean): Iterable[Long] =
      (if (reversed) in.get(u) else out.get(u)).getOrElse(Iterable.empty)
    def edges: Vector[(Long, Long)] =
      out.iterator.flatMap { case (u, vs) => vs.iterator.map(v => (u, v)) }.toVector
  }

  private def run(
      analysis: Analyzer.Analysis,
      grammar: Seq[ChainRule],
      edb: Map[String, Vector[(Long, Long)]],
  ): Map[String, Vector[(Long, Long)]] = {
    val graphs = mutable.Map.empty[String, LabelGraph]
    (analysis.edbs ++ analysis.idbs).foreach(p => graphs(p) = new LabelGraph)

    val worklist = mutable.Queue.empty[(String, Long, Long)]
    def addEdge(label: String, u: Long, v: Long): Unit =
      if (graphs(label).add(u, v)) worklist.enqueue((label, u, v))

    for ((p, es) <- edb; (u, v) <- es) addEdge(p, u, v)

    // Index productions by the labels they mention, with the match position.
    val byLabel = mutable.Map.empty[String, mutable.ArrayBuffer[(ChainRule, Int)]]
    for (rule <- grammar) {
      val syms = rule match {
        case BinaryChain(_, s, _) => s
        case SelfLoop(_, s)       => s
        case other                => throw UnsupportedProgramException(name, s"$other")
      }
      syms.zipWithIndex.foreach { case (sym, i) =>
        byLabel.getOrElseUpdate(sym.pred, new mutable.ArrayBuffer[(ChainRule, Int)]()) += ((rule, i))
      }
    }

    var processed = 0L
    while (worklist.nonEmpty) {
      processed += 1
      if ((processed & 0xFFFF) == 0 && Thread.currentThread().isInterrupted)
        throw new RuntimeException(new InterruptedException("Graspan worklist interrupted"))
      val (label, u, v) = worklist.dequeue()
      for ((rule, pos) <- byLabel.getOrElse(label, mutable.ArrayBuffer.empty)) {
        val syms = rule match {
          case BinaryChain(_, s, _) => s
          case SelfLoop(_, s)       => s
          case other                => throw UnsupportedProgramException(name, s"$other")
        }
        val sym = syms(pos)
        // orient the new edge along the chain step
        val (from, to) = if (sym.reversed) (v, u) else (u, v)
        // chain starts reaching `from` via the prefix, walked backwards
        val starts = walk(Set(from), syms.take(pos).reverse, graphs, backwards = true)
        if (starts.nonEmpty) {
          // chain ends reachable from `to` via the suffix
          val ends = walk(Set(to), syms.drop(pos + 1), graphs, backwards = false)
          if (ends.nonEmpty) rule match {
            case BinaryChain(h, _, _) => for (x <- starts; y <- ends) addEdge(h, x, y)
            case SelfLoop(h, _)       => for (x <- starts) addEdge(h, x, x)
            case other                => throw UnsupportedProgramException(name, s"$other")
          }
        }
      }
    }

    analysis.idbs.map(p => p -> graphs(p).edges).toMap
  }

  /** Walk a symbol sequence from `frontier`; `backwards` inverts each step
    * (used to enumerate chain prefixes ending at the matched edge).
    */
  private def walk(
      frontier: Set[Long], syms: Seq[Sym],
      graphs: mutable.Map[String, LabelGraph], backwards: Boolean,
  ): Set[Long] =
    syms.foldLeft(frontier) { (cur, sym) =>
      if (cur.isEmpty) cur
      else {
        val rev = if (backwards) !sym.reversed else sym.reversed
        cur.flatMap(n => graphs(sym.pred).succ(n, rev))
      }
    }
}
