package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.util.ConcurrentLongSet

/** FAST-DEDUP's tables (§5.2's global hash table over compact keys): one
  * [[ConcurrentLongSet]] per set IDB whose tuples CCK can pack. The merge
  * step inserts R_t's keys and keeps the rows whose key was new (Soufflé's
  * insert-returns-new): one narrow pass, with no exchange. A set kept for
  * the whole of the IDB's stratum holds R's keys, so the same pass is also
  * R_δ − R, and no hash table is built on R. With DSD off a set is opened
  * for one iteration and dedups only; OPSD then takes R_δ − R.
  *
  * The sets live in the JVM that runs the tasks. Spark serializes task
  * closures even in local mode, so a task cannot carry a set; it looks it up
  * here by id. The small-Δ driver tier ([[DriverTier]]) inserts into the
  * same sets on the driver.
  *
  * This is a single-node choice. An insert is not undone when a task fails,
  * so the pass is sound only when every task runs in the driver's JVM and
  * runs once: a local master without task retries ([[supports]]).
  */
private[core] object KeySets {
  private val sets = new ConcurrentHashMap[Long, ConcurrentLongSet]()
  private val lastId = new AtomicLong()

  /** Does `master` run every task once, in this JVM? True for `local`,
    * `local[N]` and `local[*]`; false for `local[N,F]`, which retries a
    * failed task up to F times, and for any cluster.
    */
  def supports(master: String): Boolean = master.matches("""local(\[(\d+|\*)\])?""")

  /** A new empty set, and its id. */
  def open(): Long = {
    val id = lastId.incrementAndGet()
    sets.put(id, new ConcurrentLongSet)
    id
  }

  def release(id: Long): Unit = sets.remove(id)

  /** Sets opened and not released. */
  def openCount: Int = sets.size

  /** Set `id`, for an insert on the driver or in a task. */
  def lookup(id: Long): ConcurrentLongSet = {
    val s = sets.get(id)
    if (s == null) throw new IllegalStateException(s"key set $id was released")
    s
  }

  /** The rows of `df` (columns c0..c{n-1}, packable) whose key set `id` did
    * not hold yet; every key is inserted. The pass is narrow: `df` is
    * coalesced to at most `numPartitions` partitions, and nothing is
    * shuffled.
    */
  def insertFresh(df: DataFrame, id: Long, numPartitions: Int): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val arity = df.columns.length
    df.select(Dedup.packExpr(arity).as("ck")).as[Long]
      .coalesce(numPartitions)
      .mapPartitions { it =>
        val set = lookup(id)
        it.filter(set.add)
      }
      .toDF("ck").select(Dedup.unpackExprs(arity, col("ck")): _*)
  }
}
