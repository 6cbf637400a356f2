package fixbench

import repro.TestUtil
import repro.baselines.souffle.SouffleLite
import repro.datalog.{Analyzer, Parser, Program}
import repro.graphs.GraphData
import repro.programs.Programs

/** EDB tuples by relation name, as plain arrays. */
object Edb {
  type Tuples = Map[String, Seq[Array[Long]]]
}

/** One benchmark workload: a paper program over generated inputs. The seed
  * comes from the benchmark's arguments; the engine only ever sees the
  * DataFrames loaded from [[generate]]'s output.
  */
sealed abstract class Workload(val name: String, val source: String) {
  lazy val program: Program = Parser.parse(source)
  lazy val arities: Map[String, Int] = Analyzer.analyze(program).arities

  def generate(seed: Long): Edb.Tuples

  /** Fingerprint of every IDB of the fixpoint, computed without RecStep. */
  def reference(edb: Edb.Tuples): Map[String, Fingerprint]

  protected def souffle(edb: Edb.Tuples): Map[String, Fingerprint] =
    new SouffleLite().evaluateInMemory(program, edb).map { case (p, ts) => p -> Fingerprint.of(ts) }
}

/** CSDA over a long chained control-flow graph: many iterations whose Δ is a
  * handful of tuples, so per-iteration overhead dominates (§6.3). The graph
  * is `GraphData.csdaInput` at its default generator seed, which only
  * decides whether a segment gets a second null edge, with the vertex ids
  * permuted by the run's seed: every seed gives the same iteration count and
  * Δ sizes over different tuples.
  */
final case class CsdaTinyDelta(segments: Int) extends Workload("csda-tiny-delta", Programs.csdaSource) {
  def generate(seed: Long): Edb.Tuples = {
    val in = GraphData.csdaInput(segments, segLen = 6, branching = 2)
    val ids = (in.arc ++ in.nullEdge).flatMap { case (a, b) => Seq(a, b) }.distinct.sorted
    val relabel = ids.zip(new scala.util.Random(seed).shuffle(ids)).toMap
    def edges(es: GraphData.Edges) = es.map { case (a, b) => Array(relabel(a), relabel(b)) }
    Map("nullEdge" -> edges(in.nullEdge), "arc" -> edges(in.arc))
  }
  def reference(edb: Edb.Tuples): Map[String, Fingerprint] = souffle(edb)
}

/** SSSP from vertex 1 over a layered weighted graph: the recursive
  * MIN-aggregation loop. Every vertex of layer k has `fanIn` arcs from
  * layer k-1 with weights in [1, 100], so its distance is reached over
  * exactly k hops and the iteration count depends on `layers` alone.
  * Each vertex also has one skip arc from layer k-2 heavier than any
  * shortest path: it gives an early estimate that later iterations improve.
  */
final case class SsspMinAgg(layers: Int, width: Int, fanIn: Int) extends Workload("sssp-min-agg", Programs.ssspSource) {
  def generate(seed: Long): Edb.Tuples = {
    val rnd = new scala.util.Random(seed)
    def layer(k: Int): Seq[Long] = if (k == 0) Seq(1L) else (0 until width).map(i => 2L + (k - 1) * width + i)
    def pick(k: Int): Long = { val l = layer(k); l(rnd.nextInt(l.size)) }
    val heavy = 100L * layers
    val arcs = for {
      k <- 1 to layers
      v <- layer(k)
      arc <- Seq.fill(fanIn)(Array(pick(k - 1), v, 1L + rnd.nextInt(100))).distinctBy(a => a(0)) ++
        (if (k >= 2) Seq(Array(pick(k - 2), v, heavy + 1 + rnd.nextInt(100))) else Nil)
    } yield arc
    Map("arc" -> arcs, "id" -> Seq(Array(1L)))
  }
  def reference(edb: Edb.Tuples): Map[String, Fingerprint] = {
    val arcs = edb("arc").map(t => (t(0), t(1), t(2)))
    val dist = Fingerprint.of(TestUtil.dijkstra(arcs, edb("id").map(_(0)).toSet).map { case (v, d) => Array(v, d) })
    Map("sssp2" -> dist, "sssp" -> dist)
  }
}

/** TC over an Erdős–Rényi graph small enough for PBME's bit matrix (§5.3). */
final case class TcPbme(vertices: Int, p: Double) extends Workload("tc-pbme", Programs.tcSource) {
  def generate(seed: Long): Edb.Tuples =
    Map("arc" -> GraphData.erdosRenyi(vertices, p, seed = seed).map { case (a, b) => Array(a, b) })

  /** Breadth-first closure from every vertex. */
  def reference(edb: Edb.Tuples): Map[String, Fingerprint] = {
    val arcs = edb("arc")
    val n = arcs.iterator.map(t => math.max(t(0), t(1))).maxOption.getOrElse(0L).toInt
    val adj = Array.fill(n + 1)(Array.newBuilder[Int])
    arcs.foreach(t => adj(t(0).toInt) += t(1).toInt)
    val out = adj.map(_.result())
    val seen = new Array[Int](n + 1) // stamp: last source that reached the vertex
    val queue = new Array[Int](n + 1)
    val pairs = Iterator.range(1, n + 1).flatMap { src =>
      var head, tail = 0
      val reached = Array.newBuilder[Array[Long]]
      out(src).foreach { v => if (seen(v) != src) { seen(v) = src; queue(tail) = v; tail += 1 } }
      while (head < tail) {
        val u = queue(head); head += 1
        reached += Array(src.toLong, u.toLong)
        out(u).foreach { v => if (seen(v) != src) { seen(v) = src; queue(tail) = v; tail += 1 } }
      }
      reached.result()
    }
    Map("tc" -> Fingerprint.of(pairs))
  }
}

object Workloads {
  /** Sizes are chosen so that one evaluation takes one to three seconds on
    * one core, leaving about ten evaluations per measured run.
    */
  val all: Seq[Workload] = Seq(
    CsdaTinyDelta(segments = 1),
    SsspMinAgg(layers = 4, width = 200, fanIn = 4),
    TcPbme(vertices = 500, p = 0.01),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
