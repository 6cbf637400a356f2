package repro.pbme

import java.util.concurrent.{ExecutionException, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import scala.collection.mutable

/** Parallel Bit-Matrix Evaluation (§5.3, Algorithms 2 and 3).
  *
  * The join and deduplication are fused into bit operations on a dense
  * matrix over the active domain, with rows partitioned round-robin across
  * `k` worker threads:
  *
  *  - TC (Algorithm 2): each thread owns its rows outright — the per-row
  *    frontier only ever updates row i — so a plain [[BitMatrix]] suffices
  *    (zero coordination). A step is word-parallel: the next frontier is the
  *    OR of the arc rows of the current one, minus what row i already holds.
  *  - SG (Algorithm 3): a derived pair (q,p) lands in a row owned by a
  *    different thread, so facts are claimed with a lock-free CAS
  *    ([[AtomicBitMatrix]]) and each thread keeps processing the pairs it
  *    derives (the paper's uncoordinated variant, including its skew).
  *
  * Workers check for interruption once per row (TC) or work item (SG); an
  * interrupted or failed call interrupts its workers before it returns.
  */
object Pbme {

  /** Transitive closure of `arcs` over vertices {1..n}. */
  def tc(arcs: Seq[(Long, Long)], n: Int, threads: Int = Runtime.getRuntime.availableProcessors()): BitMatrix = {
    val mArc = new BitMatrix(n)
    arcs.foreach { case (u, v) => mArc.set(u.toInt, v.toInt) }
    tc(mArc, threads)
  }

  /** Transitive closure of the arcs held in `mArc`. */
  private def tc(mArc: BitMatrix, threads: Int): BitMatrix = {
    val n = mArc.n
    val mTc = new BitMatrix(n)
    val words = mArc.words
    inPool(threads) { p =>
      val frontier = new Array[Long](words)
      val next = new Array[Long](words)
      var i = p + 1
      while (i <= n) { // round-robin row partitioning
        checkInterrupt()
        val closure = mTc.row(i)
        mTc.orRow(i, mArc.row(i)) // M_tc <- M_arc
        System.arraycopy(closure, 0, frontier, 0, words)
        var live = true
        while (live) {
          java.util.Arrays.fill(next, 0L)
          var w = 0
          while (w < words) { // next = OR of M_arc rows over the frontier
            var bits = frontier(w)
            while (bits != 0L) {
              val src = mArc.row((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
              var k = 0
              while (k < words) { next(k) |= src(k); k += 1 }
              bits &= bits - 1
            }
            w += 1
          }
          live = false
          w = 0
          while (w < words) { // fresh = next & ~tc(i); tc(i) |= fresh; frontier = fresh
            val fresh = next(w) & ~closure(w)
            closure(w) |= fresh
            frontier(w) = fresh
            live ||= fresh != 0L
            w += 1
          }
        }
        i += threads
      }
    }
    mTc
  }

  /** Same generation of `arcs` over vertices {1..n}. */
  def sg(arcs: Seq[(Long, Long)], n: Int, threads: Int = Runtime.getRuntime.availableProcessors()): AtomicBitMatrix = {
    // vector index V_arc[x] = children of x
    val adj = Array.fill(n + 1)(new mutable.ArrayBuffer[Int]())
    arcs.foreach { case (u, v) => adj(u.toInt) += v.toInt }
    sg(adj.map(_.toArray), threads)
  }

  /** Same generation over the vector index `vArc`: `vArc(x)` holds the
    * children of x, for x in {0..n}.
    */
  private def sg(vArc: Array[Array[Int]], threads: Int): AtomicBitMatrix = {
    val n = vArc.length - 1
    val mSg = new AtomicBitMatrix(n)
    // base: sg(x,y) :- arc(p,x), arc(p,y), x != y
    val seeds = new mutable.ArrayBuffer[(Int, Int)]()
    var p = 1
    while (p <= n) {
      val cs = vArc(p)
      var a = 0
      while (a < cs.length) {
        var b = 0
        while (b < cs.length) {
          if (cs(a) != cs(b) && mSg.testAndSet(cs(a), cs(b))) seeds += ((cs(a), cs(b)))
          b += 1
        }
        a += 1
      }
      p += 1
    }

    inPool(threads) { t =>
      // round-robin partition of the seed pairs; each thread then owns
      // whatever pairs it derives (untied to partitions — §5.3).
      val work = new mutable.ArrayDeque[(Int, Int)]()
      var s = t
      while (s < seeds.length) { work.append(seeds(s)); s += threads }
      while (work.nonEmpty) {
        checkInterrupt()
        val (a, b) = work.removeHead()
        val qs = vArc(a)
        val ps = vArc(b)
        var qi = 0
        while (qi < qs.length) {
          var pi = 0
          while (pi < ps.length) {
            // NB: the recursive SG rule has no x != y guard (only the
            // base rule does), so diagonal pairs are derivable here.
            val q = qs(qi); val pp = ps(pi)
            if (mSg.testAndSet(q, pp)) work.append((q, pp))
            pi += 1
          }
          qi += 1
        }
      }
    }
    mSg
  }

  /** Engine entry: evaluate a PBME-matched program if the active domain fits
    * under `maxVertices` and its bit matrices fit the heap (§5.3's
    * memory-fit condition); None = fall back to the relational path.
    */
  def tryEvaluate(
      shape: PbmeMatcher.Shape,
      edb: Map[String, DataFrame],
      maxVertices: Int,
  )(implicit spark: SparkSession): Option[Map[String, DataFrame]] = {
    val arcs = loadIds(edb, Seq(shape.edb -> 2), maxVertices).toOption.getOrElse(return None)(shape.edb)
    val n = arcs.max
    val matrices = shape match {
      case _: PbmeMatcher.TcShape => 2 // M_arc and M_tc
      case _: PbmeMatcher.SgShape => 1 // M_sg (arcs are a vector index)
    }
    if (!matricesFit(n, matrices, heapHeadroom())) return None
    val result: BitRows = shape match {
      case _: PbmeMatcher.TcShape =>
        val mArc = new BitMatrix(n)
        arcs.foreach(mArc.set)
        tc(mArc, Runtime.getRuntime.availableProcessors())
      case _: PbmeMatcher.SgShape =>
        val adj = Array.fill(n + 1)(new mutable.ArrayBuilder.ofInt)
        arcs.foreach((u, v) => adj(u) += v)
        sg(adj.map(_.result()), Runtime.getRuntime.availableProcessors())
    }
    Some(Map(shape.idb -> packedDF(spark, (1 to result.n).iterator.map(i => (i, result.row(i))), arity = 2)))
  }

  /** An EDB relation's ids on the driver, one primitive array per Spark
    * partition: a binary relation's tuples as c0, c1, c0, c1, …, a unary
    * one's values in turn.
    */
  private[pbme] final class Ids(val arity: Int, parts: Array[Array[Int]]) {
    def tuples: Long = parts.iterator.map(_.length.toLong).sum / arity

    /** The largest id, or 0 for an empty relation. */
    def max: Int = {
      var m = 0
      for (part <- parts; v <- part) m = math.max(m, v)
      m
    }

    /** `f(c0, c1)` for each tuple; c1 = 0 in a unary relation. */
    def foreach(f: (Int, Int) => Unit): Unit =
      for (part <- parts) {
        var i = 0
        while (i < part.length) {
          if (arity == 2) f(part(i), part(i + 1)) else f(part(i), 0)
          i += arity
        }
      }
  }

  /** Reads each relation of `arities` (name -> arity 1 or 2) from `edb`,
    * one Spark job each, in the order given. A partition packs its ids as
    * it reads them and stops at the first one outside {1..maxVertices},
    * sending only that id; the evaluation is then declined, with a reason,
    * before any later relation is read and without the declined
    * relation's tuples on the driver.
    */
  private[pbme] def loadIds(edb: Map[String, DataFrame], arities: Seq[(String, Int)],
                            maxVertices: Int): Either[String, Map[String, Ids]] = {
    val loaded = Map.newBuilder[String, Ids]
    for ((p, arity) <- arities) {
      val df = edb.getOrElse(p, return Left(s"missing EDB relation '$p'"))
      val parts = df.rdd.mapPartitions(rows => Iterator(packIds(rows, arity, maxVertices))).collect()
      parts.collectFirst { case Left(v) => v } match {
        case Some(v) if v <= 0 => return Left(s"non-positive id $v in '$p'")
        case Some(v)           => return Left(s"id $v in '$p' exceeds the cap of $maxVertices vertices")
        case None              => loaded += p -> new Ids(arity, parts.collect { case Right(a) => a })
      }
    }
    Right(loaded.result())
  }

  /** One partition's ids, packed as [[Ids]] lays them out, or the first id
    * outside {1..maxVertices}, at which the partition stops reading.
    */
  private[pbme] def packIds(rows: Iterator[Row], arity: Int, maxVertices: Int): Either[Long, Array[Int]] = {
    val out = new mutable.ArrayBuilder.ofInt
    while (rows.hasNext) {
      val r = rows.next()
      var c = 0
      while (c < arity) {
        val v = r.getLong(c)
        if (v <= 0 || v > maxVertices) return Left(v)
        out += v.toInt
        c += 1
      }
    }
    Right(out.result())
  }

  /** Heap bytes not in use now: what new bit matrices may take. */
  private[pbme] def heapHeadroom(): Long = {
    val rt = Runtime.getRuntime
    rt.maxMemory - (rt.totalMemory - rt.freeMemory)
  }

  /** Whether `matrices` bit matrices over {1..n}, each (n+1)·⌈(n+1)/64⌉
    * words of 8 bytes, and `bitsets` bitsets of ⌈(n+1)/64⌉ words, fit in
    * `maxHeapBytes` with a cell count that an `Int` index can address.
    */
  def matricesFit(n: Long, matrices: Int, maxHeapBytes: Long, bitsets: Int = 0): Boolean = {
    val words = (n + 1 + 63) >>> 6
    val cells = (n + 1) * words
    cells <= Int.MaxValue && (matrices * cells + bitsets * words) * 8 <= maxHeapBytes
  }

  /** Hands bit rows to Spark still packed: the non-empty rows travel as
    * (row, words) — the matrix's own arrays — and Spark's tasks decode them.
    * Arity 2: row i's bit j is the pair (c0, c1) = (i, j). Arity 1: the one
    * row is a bitset, and bit j is the value c0 = j. Every action re-decodes
    * from the words.
    */
  private[pbme] def packedDF(spark: SparkSession, rows: Iterator[(Int, Array[Long])], arity: Int): DataFrame = {
    val packed = rows.filter(_._2.exists(_ != 0L)).toVector
    val slices = math.max(1, math.min(packed.size, spark.sparkContext.defaultParallelism))
    val rdd = spark.sparkContext.parallelize(packed, slices)
    if (arity == 2) {
      val pairs = rdd.mapPartitions(_.flatMap { case (i, row) => BitRows.pairs(i, row) })
      spark.createDataset(pairs)(Encoders.tuple(Encoders.scalaLong, Encoders.scalaLong)).toDF("c0", "c1")
    } else {
      val values = rdd.mapPartitions(_.flatMap { case (i, row) => BitRows.pairs(i, row).map(_._2) })
      spark.createDataset(values)(Encoders.scalaLong).toDF("c0")
    }
  }

  private[pbme] def checkInterrupt(): Unit =
    if (Thread.interrupted()) throw new InterruptedException("PBME kernel interrupted")

  private val workerIds = new AtomicInteger(0)

  /** Runs `work(0) … work(threads-1)` on `threads` fresh worker threads and
    * waits for all of them. However the wait ends — completion, a worker's
    * exception, or an interrupt of the caller — the workers are interrupted
    * on the way out and stop at their next interrupt check. With one
    * thread, `work(0)` runs on the caller, which then takes the interrupt
    * itself.
    */
  private[pbme] def inPool(threads: Int)(work: Int => Unit): Unit = {
    if (threads == 1) return work(0)
    val pool = Executors.newFixedThreadPool(threads, new ThreadFactory {
      def newThread(r: Runnable): Thread = {
        val t = new Thread(r, s"pbme-worker-${workerIds.incrementAndGet()}")
        t.setDaemon(true)
        t
      }
    })
    try {
      val tasks = (0 until threads).map(p => pool.submit(new Runnable { def run(): Unit = work(p) }))
      try tasks.foreach(_.get())
      catch { case e: ExecutionException if e.getCause != null => throw e.getCause }
    } finally { pool.shutdownNow(); () }
  }
}
