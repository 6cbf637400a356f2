package repro.pbme

import java.lang.invoke.{MethodHandles, VarHandle}

/** Rows of a dense n×n bit matrix over the active domain {1..n} (§5.3).
  * Row/column index 0 is unused so vertex ids map directly; row i is
  * `words` 64-bit words, bit j of the row is column j. The read-only views
  * below are what the PBME hand-off ships to Spark.
  */
sealed trait BitRows {
  def n: Int
  def words: Int

  /** Row i's words: the matrix's own array, not a copy. */
  def row(i: Int): Array[Long]

  /** Number of set bits in row i. */
  def rowCardinality(i: Int): Long = {
    var c = 0L; var w = 0
    val r = row(i)
    while (w < words) { c += java.lang.Long.bitCount(r(w)); w += 1 }
    c
  }

  def cardinality: Long = (1 to n).map(rowCardinality(_)).sum

  /** Iterate set column indices of row i. */
  def foreachInRow(i: Int)(f: Int => Unit): Unit =
    BitRows.pairs(i, row(i)).foreach(p => f(p._2.toInt))

  /** All set (row, col) pairs as an iterator. */
  def tuples: Iterator[(Long, Long)] =
    (1 to n).iterator.flatMap(i => BitRows.pairs(i, row(i)))
}

object BitRows {
  def wordsFor(n: Int): Int = (n + 1 + 63) >>> 6

  /** The set bits of one packed row as (i, j) pairs, decoded lazily. */
  def pairs(i: Int, row: Array[Long]): Iterator[(Long, Long)] = new Iterator[(Long, Long)] {
    private var w = 0
    private var bits = if (row.length > 0) row(0) else 0L
    def hasNext: Boolean = {
      while (bits == 0L && w + 1 < row.length) { w += 1; bits = row(w) }
      bits != 0L
    }
    def next(): (Long, Long) = {
      if (!hasNext) throw new NoSuchElementException
      val j = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
      bits &= bits - 1
      (i.toLong, j.toLong)
    }
  }
}

/** Plain `Array[Long]` rows. Safe when every row is written by a single
  * thread (the TC kernel's zero-coordination partitioning — Algorithm 2).
  */
final class BitMatrix(val n: Int) extends BitRows {
  val words: Int = BitRows.wordsFor(n)
  private val rows: Array[Array[Long]] = Array.ofDim[Long](n + 1, words)

  def row(i: Int): Array[Long] = rows(i)

  def get(i: Int, j: Int): Boolean = (rows(i)(j >>> 6) & (1L << (j & 63))) != 0L

  def set(i: Int, j: Int): Unit = rows(i)(j >>> 6) |= (1L << (j & 63))

  /** Set bit (i,j); returns true iff it was previously clear. */
  def testAndSet(i: Int, j: Int): Boolean = {
    val w = j >>> 6
    val m = 1L << (j & 63)
    val old = rows(i)(w)
    rows(i)(w) = old | m
    (old & m) == 0L
  }

  /** OR `srcRow` into this matrix's row `dst`. */
  def orRow(dst: Int, srcRow: Array[Long]): Unit = {
    val r = rows(dst)
    var w = 0
    while (w < words) { r(w) |= srcRow(w); w += 1 }
  }

  def clear(i: Int, j: Int): Unit = rows(i)(j >>> 6) &= ~(1L << (j & 63))
}

/** CAS bit matrix for kernels where multiple threads may write the same row
  * (SG, Algorithm 3). `testAndSet` is lock-free: the winning CAS claims the
  * fact. The inherited [[BitRows]] views read rows plainly, so they are for
  * use once the writing threads have been joined.
  */
final class AtomicBitMatrix(val n: Int) extends BitRows {
  import AtomicBitMatrix.Word
  val words: Int = BitRows.wordsFor(n)
  private val rows: Array[Array[Long]] = Array.ofDim[Long](n + 1, words)

  def row(i: Int): Array[Long] = rows(i)

  def get(i: Int, j: Int): Boolean =
    ((Word.getVolatile(rows(i), j >>> 6): Long) & (1L << (j & 63))) != 0L

  /** Atomically set bit (i,j); returns true iff this call set it. */
  def testAndSet(i: Int, j: Int): Boolean = {
    val r = rows(i)
    val w = j >>> 6
    val m = 1L << (j & 63)
    var old: Long = Word.getVolatile(r, w)
    while ((old & m) == 0L) {
      if (Word.compareAndSet(r, w, old, old | m): Boolean) return true
      old = Word.getVolatile(r, w)
    }
    false
  }
}

object AtomicBitMatrix {
  private val Word: VarHandle = MethodHandles.arrayElementVarHandle(classOf[Array[Long]])
}
