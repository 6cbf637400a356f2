package repro.pbme

import java.util.concurrent.{ExecutionException, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
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
    val vArc: Array[Array[Int]] = adj.map(_.toArray)

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
    val arcDf = edb.getOrElse(shape.edb, return None)
    val arcs = arcDf.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val n = arcs.iterator.map(e => math.max(e._1, e._2)).maxOption.getOrElse(0L)
    val matrices = shape match {
      case _: PbmeMatcher.TcShape => 2 // M_arc and M_tc
      case _: PbmeMatcher.SgShape => 1 // M_sg (arcs are a vector index)
    }
    if (n > maxVertices || arcs.exists(e => e._1 <= 0 || e._2 <= 0) ||
        !matricesFit(n, matrices, Runtime.getRuntime.maxMemory)) return None
    val result: BitRows = shape match {
      case _: PbmeMatcher.TcShape => tc(arcs, n.toInt)
      case _: PbmeMatcher.SgShape => sg(arcs, n.toInt)
    }
    Some(Map(shape.idb -> toDF(spark, result)))
  }

  /** Whether `matrices` bit matrices over {1..n}, each (n+1)·⌈(n+1)/64⌉
    * words of 8 bytes, fit in `maxHeapBytes` with a cell count that an
    * `Int` index can address.
    */
  def matricesFit(n: Long, matrices: Int, maxHeapBytes: Long): Boolean = {
    val cells = (n + 1) * ((n + 1 + 63) >>> 6)
    cells <= Int.MaxValue && matrices * cells * 8 <= maxHeapBytes
  }

  /** Hands the closure to Spark still packed: the non-empty rows travel as
    * (vertex, words) — the matrix's own arrays — and Spark's tasks decode
    * them into (c0, c1) pairs. Every action re-decodes from the words.
    */
  private def toDF(spark: SparkSession, m: BitRows): DataFrame = {
    val packed = (1 to m.n).iterator.map(i => (i, m.row(i))).filter(_._2.exists(_ != 0L)).toVector
    val slices = math.max(1, math.min(packed.size, spark.sparkContext.defaultParallelism))
    val pairs = spark.sparkContext.parallelize(packed, slices)
      .mapPartitions(_.flatMap { case (i, row) => BitRows.pairs(i, row) })
    spark.createDataset(pairs)(Encoders.tuple(Encoders.scalaLong, Encoders.scalaLong)).toDF("c0", "c1")
  }

  private def checkInterrupt(): Unit =
    if (Thread.currentThread.isInterrupted) throw new InterruptedException("PBME kernel interrupted")

  private val workerIds = new AtomicInteger(0)

  /** Runs `work(0) … work(threads-1)` on `threads` fresh worker threads and
    * waits for all of them. However the wait ends — completion, a worker's
    * exception, or an interrupt of the caller — the workers are interrupted
    * on the way out and stop at their next interrupt check.
    */
  private def inPool(threads: Int)(work: Int => Unit): Unit = {
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
