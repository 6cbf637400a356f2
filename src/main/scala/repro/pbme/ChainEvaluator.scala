package repro.pbme

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.IterationLimitException
import repro.datalog.{Analyzer, ChainRules, Rule}
import repro.datalog.ChainRules._
import scala.collection.mutable

/** Semi-naïve bit-matrix evaluation of chain-shaped programs: §5.3's PBME
  * for every program whose rules [[ChainRules]] extracts, not only TC and SG.
  *
  * A binary relation is a bit matrix over the active domain {1..n}, row i
  * holding the j with (i, j); a unary relation is a bitset, held as the
  * single row 0. A row is allocated on its first fact, so a sparse domain
  * holds only its non-empty rows. A rule step is a row-scatter product: the next row is the OR
  * of the rows Y(k) over the set bits k of the current row X(i). A reversed
  * step reads the relation's transpose, kept beside it. Join and dedup are
  * fused, as in §5.3: a derived row is OR-ed together and then masked by R.
  *
  * Evaluation is synchronous semi-naïve, stratum by stratum. In iteration 1
  * the rules that read no IDB of their own stratum run over full relations.
  * Later iterations run, for each occurrence of a same-stratum IDB in a rule,
  * the rule with Δ at that step and full relations at the others. A rule
  * whose Δ is its first step starts only from Δ's rows, so a linear rule
  * treats each (row, bit) of its IDB once, |R|·⌈(n+1)/64⌉ word-ORs in all.
  *
  * Each iteration's rows are split round-robin across PBME's worker pool:
  * the worker that owns row x of a head derives all of it, so no two workers
  * write one row. Workers check for interruption once per row. New facts
  * enter R, Δ and any transpose on the calling thread, after the workers
  * are joined.
  */
object ChainEvaluator {

  /** Where a chain's last row goes in its head. */
  private sealed trait Out
  /** H(x, y) for every y of the row; with `neq`, not y = x. */
  private final case class Pairs(neq: Boolean) extends Out
  /** H(x, x) if the row is non-empty. */
  private case object Loop extends Out
  /** H(y) for every y of the row, which starts at the unary row 0. */
  private case object Unary extends Out

  /** One rule: its head, and the relations its steps read. The first step
    * is where the chain starts: row x of a binary relation, or a unary one.
    */
  private final case class Chain(head: String, out: Out, steps: Vector[Sym])

  /** The chain form of every rule of a program. */
  private final class Plan(val analysis: Analyzer.Analysis, val chain: Map[Rule, Chain]) {
    /** Every relation the evaluation holds, read forward or transposed. */
    val views: Set[Sym] = chain.valuesIterator.flatMap(_.steps).toSet ++ analysis.idbs.map(Sym(_, reversed = false))

    def unary(pred: String): Boolean = analysis.arities(pred) == 1

    /** An IDB's view holds R and, at most, a Δ as large; an EDB's only itself. */
    private def copies(v: Sym): Int = if (analysis.idbs(v.pred)) 2 else 1

    /** n×n matrices the evaluation holds at most. */
    val matrices: Int = views.toSeq.filterNot(v => unary(v.pred)).map(copies).sum
    /** Bitsets the evaluation holds at most. */
    val bitsets: Int = views.toSeq.filter(v => unary(v.pred)).map(copies).sum
  }

  /** The program as chains, or why it is outside the fragment. */
  private def plan(analysis: Analyzer.Analysis): Either[String, Plan] =
    ChainRules.extract(analysis.program, analysis.arities).map { rules =>
      val chains = analysis.program.rules.zip(rules).map { case (r, c) =>
        r -> (c match {
          case BinaryChain(h, syms, neq)  => Chain(h, Pairs(neq), syms.toVector)
          case SelfLoop(h, syms)          => Chain(h, Loop, syms.toVector)
          case UnaryCopy(h, src)          => Chain(h, Unary, Vector(Sym(src, reversed = false)))
          case UnaryChain(h, start, syms) => Chain(h, Unary, Sym(start, reversed = false) +: syms.toVector)
        })
      }
      new Plan(analysis, chains.toMap)
    }

  /** Words of full matrices and bitsets per EDB tuple past which the domain
    * is too sparse to be taken. Rows are allocated on their first fact, so
    * the cost follows the facts, each row of them ⌈(n+1)/64⌉ words, not the
    * full matrices. Measured on a 4-core host, t random tuples over {1..n},
    * one whole evaluation with a `count` of each IDB, three runs each after
    * a GC, relational (`RecStepConf()`) against bit matrices, with peak heap:
    *  - AA (eight full matrices), t spread over its four EDBs:
    *    n = 8,192: 0.70–0.92 vs 0.22–0.25 s at t = 8, 1.84–2.05 vs
    *    0.19–0.28 s at t = 4,100 (377–460 vs 180–202 MB);
    *    n = 32,768: 0.39–0.43 vs 0.16–0.21 s at t = 8 (16.8M words per
    *    tuple), 0.70–0.76 vs 0.19–0.22 s at t = 1,028 and 3.5–4.3 vs
    *    0.63–1.03 s at t = 16,388 (549–801 vs 418–453 MB);
    *  - CSDA (four full matrices), t random arcs and two null edges:
    *    n = 8,192: 0.25–0.47 vs 0.10–0.13 s at t = 5, 0.68–0.73 vs
    *    0.13–0.14 s at t = 16,387; n = 32,768: 0.19–0.20 vs 0.08–0.09 s at
    *    t = 5 (13.4M words per tuple), 0.31–0.32 vs 0.11–0.14 s at
    *    t = 16,387 (212 vs 221 MB).
    * Bit matrices won at every point; peak heap was lower or within 5 %.
    * The bound is the next power of two above the sparsest point measured,
    * so no much sparser domain is taken unmeasured.
    */
  val WordsPerTuple: Long = 1L << 25

  /** Evaluates the whole program on bit matrices, or returns why not, in
    * which case the caller runs the relational path. It declines a program
    * outside the chain fragment, an id outside {1..maxVertices} (found as
    * the EDBs are read, see [[Pbme.loadIds]]), matrices that would not fit
    * the heap not in use, and a domain so sparse that its matrices hold
    * more than [[WordsPerTuple]] words per EDB tuple.
    */
  def tryEvaluate(
      analysis: Analyzer.Analysis,
      edb: Map[String, DataFrame],
      maxVertices: Int,
      maxIterations: Int,
      threads: Int = Runtime.getRuntime.availableProcessors(),
  )(implicit spark: SparkSession): Either[String, Map[String, DataFrame]] =
    for {
      p <- plan(analysis)
      ids <- Pbme.loadIds(edb, analysis.edbs.toSeq.sorted.map(e => e -> analysis.arities(e)), maxVertices)
      n = ids.valuesIterator.map(_.max).maxOption.getOrElse(0)
      _ <- fits(p, n, ids.valuesIterator.map(_.tuples).sum)
    } yield {
      val run = new Run(p, n, ids, threads)
      analysis.strata.foreach(run.stratum(_, maxIterations))
      analysis.idbs.iterator.map(h => h -> run.result(spark, h)).toMap
    }

  private def fits(p: Plan, n: Int, edbTuples: Long): Either[String, Unit] = {
    val words = BitRows.wordsFor(n).toLong
    val dense = p.matrices * (n + 1L) * words + p.bitsets * words
    if (!Pbme.matricesFit(n, p.matrices, Pbme.heapHeadroom(), p.bitsets))
      Left(s"${p.matrices} bit matrices over {1..$n} would not fit the free heap")
    else if (dense > WordsPerTuple * math.max(1L, edbTuples))
      Left(s"$dense matrix words for $edbTuples EDB tuples: the domain {1..$n} is too sparse")
    else Right(())
  }

  /** A growable list of row indexes. */
  private final class Ints {
    var a = new Array[Int](16)
    var size = 0
    def +=(x: Int): Unit = {
      if (size == a.length) a = java.util.Arrays.copyOf(a, size * 2)
      a(size) = x; size += 1
    }
  }

  /** One relation, read forward or transposed: its rows, which rows are
    * non-empty, and, for an IDB, the rows of its Δ.
    */
  private final class View(rowCount: Int, words: Int) {
    /** Row k, or null until a fact is written to it. */
    val rows = new Array[Array[Long]](rowCount)
    /** The rows that are not null. */
    val nonEmpty = new Ints
    /** Δ's row k, or null where Δ has none; `deltaMask` and `deltaRows`
      * mark the rows it has.
      */
    val delta = new Array[Array[Long]](rowCount)
    val deltaMask = new Array[Long](words)
    var deltaRows = new Ints

    /** Row k, allocated on its first write. */
    private def row(k: Int): Array[Long] = {
      if (rows(k) == null) { rows(k) = new Array[Long](words); nonEmpty += k }
      rows(k)
    }

    def set(i: Int, j: Int): Unit = row(i)(j >>> 6) |= 1L << (j & 63)

    /** Adds a row of new facts to R and to Δ, which takes `fresh` as it is. */
    def add(i: Int, fresh: Array[Long]): Unit = {
      val r = row(i)
      var w = 0
      while (w < words) { r(w) |= fresh(w); w += 1 }
      delta(i) = fresh
      deltaMask(i >>> 6) |= 1L << (i & 63)
      deltaRows += i
    }

    /** Adds (i, j) to R and to Δ. */
    def addBit(i: Int, j: Int): Unit = {
      set(i, j)
      if (delta(i) == null) {
        delta(i) = new Array[Long](words)
        deltaMask(i >>> 6) |= 1L << (i & 63)
        deltaRows += i
      }
      delta(i)(j >>> 6) |= 1L << (j & 63)
    }

    def clearDelta(): Unit = {
      var d = 0
      while (d < deltaRows.size) { delta(deltaRows.a(d)) = null; d += 1 }
      java.util.Arrays.fill(deltaMask, 0L)
      deltaRows = new Ints
    }
  }

  /** A rule as one iteration runs it: the views its steps read, and the
    * step that reads Δ, or -1 for none.
    */
  private final class Variant(val steps: Array[View], val out: Out, val delta: Int)

  /** The state of one evaluation over the domain {1..n}. */
  private final class Run(plan: Plan, n: Int, edb: Map[String, Pbme.Ids], threads: Int) {
    private val words = BitRows.wordsFor(n)
    /** An empty row, never written. */
    private val empty = new Array[Long](words)
    private val views: Map[Sym, View] = plan.views.iterator.map { v =>
      val view = new View(if (plan.unary(v.pred)) 1 else n + 1, words)
      edb.get(v.pred).foreach(_.foreach { (a, b) =>
        if (plan.unary(v.pred)) view.set(0, a)
        else if (v.reversed) view.set(b, a)
        else view.set(a, b)
      })
      v -> view
    }.toMap
    /** Per-row marks that make each head's candidate rows distinct. */
    private val seen = new Array[Int](n + 1)
    private var epoch = 0

    /** Evaluates one stratum to its fixpoint, or fails at the iteration cap. */
    def stratum(s: Analyzer.Stratum, maxIterations: Int): Unit = {
      val heads = s.preds.toVector.sorted
      val chains = s.rules.map(plan.chain)
      var iteration = 0
      var anyDelta = true
      while (anyDelta && iteration < maxIterations) {
        iteration += 1
        Pbme.checkInterrupt()
        val variants =
          if (iteration == 1) chains.filterNot(_.steps.exists(v => s.preds(v.pred))).map(_ -> -1)
          else for {
            c <- chains
            (v, j) <- c.steps.zipWithIndex
            if s.preds(v.pred) && views(v).deltaRows.size > 0
          } yield c -> j
        anyDelta = iterate(heads, variants.map { case (c, j) => c.head -> new Variant(c.steps.map(views).toArray, c.out, j) })
        if (!s.recursive) anyDelta = false
      }
      if (anyDelta) throw IterationLimitException("RecStep", heads, maxIterations)
      for (h <- heads; r <- Seq(false, true); v <- views.get(Sym(h, r))) v.clearDelta()
    }

    /** One iteration: derives each head's rows, then moves the new facts
      * into R and Δ. Returns whether there were any.
      */
    private def iterate(heads: Vector[String], variants: Seq[(String, Variant)]): Boolean = {
      val byHead = heads.map(h => variants.collect { case (`h`, v) => v }.toArray)
      // The rows each head may gain: Δ's rows where Δ is the first step,
      // else the first step's non-empty rows.
      val candidates = byHead.map { vs =>
        epoch += 1
        val out = new Ints
        for (vr <- vs) {
          val v = vr.steps(0)
          val rows = if (vr.delta == 0) v.deltaRows else v.nonEmpty
          var i = 0
          while (i < rows.size) {
            val x = rows.a(i)
            if (seen(x) != epoch) { seen(x) = epoch; out += x }
            i += 1
          }
        }
        out
      }
      val total = candidates.map(_.size).sum
      val k = math.max(1, math.min(threads, total / RowsPerWorker))
      val fresh = Array.fill(k, heads.size)(mutable.ArrayBuffer.empty[(Int, Array[Long])])
      Pbme.inPool(k) { p =>
        val acc, a, b = new Array[Long](words)
        for (h <- heads.indices) {
          val head = views(Sym(heads(h), reversed = false))
          val cs = candidates(h)
          var i = p
          while (i < cs.size) {
            Pbme.checkInterrupt()
            val x = cs.a(i)
            derive(x, byHead(h), acc, a, b)
            val r = head.rows(x)
            newFacts(acc, if (r == null) empty else r).foreach(f => fresh(p)(h) += ((x, f)))
            i += k
          }
        }
      }
      var any = false
      for (h <- heads.indices) {
        val fwd = views(Sym(heads(h), reversed = false))
        val rev = views.get(Sym(heads(h), reversed = true))
        fwd.clearDelta()
        rev.foreach(_.clearDelta())
        for (p <- 0 until k; (x, f) <- fresh(p)(h)) {
          any = true
          fwd.add(x, f)
          rev.foreach(t => BitRows.pairs(x, f).foreach { case (i, j) => t.addBit(j.toInt, i.toInt) })
        }
      }
      any
    }

    /** acc = head row x as this iteration's `variants` derive it. */
    private def derive(x: Int, variants: Array[Variant], acc: Array[Long], a: Array[Long], b: Array[Long]): Unit = {
      java.util.Arrays.fill(acc, 0L)
      var vi = 0
      while (vi < variants.length) {
        val vr = variants(vi)
        val steps = vr.steps
        var src = if (vr.delta == 0) steps(0).delta(x) else steps(0).rows(x)
        var live = src != null
        var s = 1
        while (live && s < steps.length) {
          val v = steps(s)
          val dst = if (src eq a) b else a
          live = if (s == vr.delta) product(src, v.delta, v.deltaMask, dst) else product(src, v.rows, null, dst)
          src = dst
          s += 1
        }
        if (live) vr.out match {
          case Pairs(neq) =>
            // x != y: (x, x) stays only if an earlier rule derived it
            val bit = 1L << (x & 63)
            val had = acc(x >>> 6) & bit
            var w = 0
            while (w < words) { acc(w) |= src(w); w += 1 }
            if (neq) acc(x >>> 6) = (acc(x >>> 6) & ~bit) | had
          case Loop =>
            if (src.exists(_ != 0L)) acc(x >>> 6) |= 1L << (x & 63)
          case Unary =>
            var w = 0
            while (w < words) { acc(w) |= src(w); w += 1 }
        }
        vi += 1
      }
    }

    /** The bits of `acc` not yet in `r`, as a new row, or None. */
    private def newFacts(acc: Array[Long], r: Array[Long]): Option[Array[Long]] = {
      var w = 0
      while (w < words && (acc(w) & ~r(w)) == 0L) w += 1
      if (w == words) None
      else {
        val f = new Array[Long](words)
        while (w < words) { f(w) = acc(w) & ~r(w); w += 1 }
        Some(f)
      }
    }

    /** dst = the OR of rows(k) over the bits k of src (those in `mask`, if
      * given), skipping empty (null) rows; false if no row was OR-ed, so dst
      * is empty.
      */
    private def product(src: Array[Long], rows: Array[Array[Long]], mask: Array[Long], dst: Array[Long]): Boolean = {
      java.util.Arrays.fill(dst, 0L)
      var any = false
      var w = 0
      while (w < words) {
        var bits = if (mask == null) src(w) else src(w) & mask(w)
        while (bits != 0L) {
          val r = rows((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
          if (r != null) {
            var i = 0
            while (i < words) { dst(i) |= r(i); i += 1 }
            any = true
          }
          bits &= bits - 1
        }
        w += 1
      }
      any
    }

    /** An IDB's relation as a DataFrame, handed to Spark still packed. */
    def result(spark: SparkSession, pred: String): DataFrame = {
      val v = views(Sym(pred, reversed = false))
      val rows = v.nonEmpty.a.iterator.take(v.nonEmpty.size).map(i => (i, v.rows(i)))
      Pbme.packedDF(spark, rows, plan.analysis.arities(pred))
    }
  }

  /** Rows per worker below which an iteration runs on the calling thread:
    * starting workers would cost more than the rows. Measured on a 4-core
    * host, four threads, medians of ten whole evaluations (with the hand-off
    * and a `count`) per setting of 1 (always workers), 16, 64, 256 and never:
    *  - CSDA(linux-a), many iterations of a few rows: 0.313, 0.126, 0.089,
    *    0.082 and 0.080 s;
    *  - CSPA(20,12): 0.211, 0.220, 0.227, 0.194 and 0.220 s;
    *  - TC with a third rule over `erdosRenyi(500, 0.01)`: 0.079, 0.082,
    *    0.087, 0.083 and 0.082 s.
    * Small settings lose on CSDA; from 64 up no setting is measurably
    * better on these inputs, whose rows are short. Where workers start to
    * pay off (longer rows, more of them) is not measured.
    */
  private val RowsPerWorker = 64
}
