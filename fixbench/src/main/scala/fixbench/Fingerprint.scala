package fixbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions._

/** Order-independent summary of a relation: its row count plus two folds of
  * a per-row hash. The row hash is Spark's `xxhash64` over the columns in
  * order, so a fixpoint held as a DataFrame can be summarised by one Spark
  * job and compared with a reference held as plain tuples.
  */
final case class Fingerprint(rows: Long, xor: Long, sum32: Long) {
  override def toString: String = f"$rows rows, xor=$xor%016x, sum32=$sum32"
}

object Fingerprint {
  /** Seed of Spark's `xxhash64`. */
  private val HashSeed = 42L

  def rowHash(t: Array[Long]): Long = {
    var h = HashSeed
    var i = 0
    while (i < t.length) { h = XXH64.hashLong(t(i), h); i += 1 }
    h
  }

  /** Fingerprint of a duplicate-free tuple collection. */
  def of(tuples: IterableOnce[Array[Long]]): Fingerprint = {
    var rows, xor, sum32 = 0L
    tuples.iterator.foreach { t =>
      val h = rowHash(t)
      rows += 1; xor ^= h; sum32 += h & 0xFFFFFFFFL
    }
    Fingerprint(rows, xor, sum32)
  }

  /** The same summary computed by Spark (one job). */
  def of(df: DataFrame): Fingerprint = {
    val h = xxhash64(df.columns.map(col).toIndexedSeq: _*)
    val r = df.select(h.as("h"))
      .agg(count(lit(1)), bit_xor(col("h")), sum(col("h").bitwiseAND(lit(0xFFFFFFFFL))))
      .head()
    if (r.getLong(0) == 0) Fingerprint(0, 0, 0)
    else Fingerprint(r.getLong(0), r.getLong(1), r.getLong(2))
  }
}
