package repro.util

/** Set of non-negative Long keys that concurrent threads may insert into:
  * 64 [[LongHashSet]] shards, each behind its own lock. It is the whole of
  * the paper's CCK-GSCHT (§5.2) — one table over all compact keys, shared by
  * the tasks that insert into it — where a single [[LongHashSet]] serves one
  * task.
  *
  * The shard comes from the high bits of a 64-bit mix of the key, so it does
  * not depend on the low bits of [[LongHashSet]]'s own spread, which pick the
  * slot inside a shard.
  */
final class ConcurrentLongSet {
  private val shards = Array.fill(64)(new LongHashSet(64))

  /** Insert `k` (must be >= 0). Of all calls that insert the same key, from
    * any number of threads, exactly one returns true.
    */
  def add(k: Long): Boolean = {
    val s = shards(shardOf(k))
    s.synchronized(s.add(k))
  }

  def size: Long = shards.iterator.map(s => s.synchronized(s.size.toLong)).sum

  /** The top 6 bits of MurmurHash3's 64-bit finalizer. */
  private def shardOf(k: Long): Int = {
    var h = k
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    ((h ^ (h >>> 33)) >>> 58).toInt
  }
}
