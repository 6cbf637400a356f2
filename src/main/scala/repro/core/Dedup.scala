package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.datalog._

/** Deduplication (Algorithm 1 line 10): the compact concatenated keys of
  * FAST-DEDUP (§5.2), and generic dedup.
  *
  * FAST-DEDUP packs a tuple of small all-integer arity into one 64-bit
  * Compact Concatenated Key and inserts it into §5.2's global hash table, a
  * [[repro.util.ConcurrentLongSet]] ([[KeySets.insertFresh]]); the stored
  * key *is* the tuple. Generic dedup is Spark's `dropDuplicates` over all
  * columns.
  *
  * CCK packing requires every attribute to fit its bit budget:
  * arity 1 -> 63 bits, arity 2 -> 31 bits each, arity 3 -> 21 bits each.
  */
object Dedup {

  /** Bits per attribute available for a CCK of the given arity. */
  def bitsPerAttr(arity: Int): Int = arity match {
    case 1 => 63
    case 2 => 31
    case 3 => 21
    case _ => 0
  }

  /** Can FAST-DEDUP pack relations of this arity whose values are bounded by
    * `maxValue` (inclusive)? Values must be non-negative.
    */
  def canPack(arity: Int, maxValue: Long): Boolean = {
    val b = bitsPerAttr(arity)
    // (1L << 63) overflows; (1L << 63) - 1 wraps to Long.MaxValue, which is
    // exactly the 63-bit bound we want.
    b > 0 && maxValue >= 0 && maxValue <= (1L << b) - 1
  }

  /** The set IDBs of `analysis` whose tuples CCK packs, given `edbBound`,
    * the largest value of any EDB (`Long.MaxValue` if one is negative).
    * Program constants can reach IDB columns, so they raise the bound.
    * Arithmetic can carry values past it, and so can a SUM, COUNT or AVG
    * head, whose values any later IDB may copy: a program with either packs
    * nothing. IDBs under the MIN/MAX merge step have no dedup.
    */
  def packable(analysis: Analyzer.Analysis, edbBound: Long): Set[String] = {
    def arith(e: Expr): Boolean = e match {
      case EVar(_) | ELit(_) => false
      case _                 => true
    }
    val rules = analysis.program.rules
    val headExprs = rules.flatMap(_.head.terms.map { case HExpr(e) => e; case HAgg(_, e) => e })
    val unbounded = rules.exists(_.head.terms.exists {
      case HAgg(op, _) => !AggOp.monotone(op)
      case _           => false
    })
    if (unbounded || headExprs.exists(arith) || rules.exists(_.comparisons.exists(c => arith(c.l) || arith(c.r))))
      return Set.empty
    val consts = rules.flatMap(_.body.collect { case BAtom(_, ts, _) => ts.collect { case Num(v) => v } }.flatten) ++
      headExprs.collect { case ELit(v) => v }
    val bound = if (consts.exists(_ < 0)) Long.MaxValue else (edbBound +: consts).max
    val unpacked = analysis.strata.flatMap(_.recursiveAggs.keys).toSet
    analysis.idbs.filter(p => !unpacked(p) && canPack(analysis.arities(p), bound))
  }

  /** Pack columns c0..c{arity-1} into one CK column. */
  def packExpr(arity: Int): Column = {
    val b = bitsPerAttr(arity)
    (0 until arity)
      .map(i => shiftleft(col(s"c$i"), b * (arity - 1 - i)))
      .reduce[Column]((x, y) => x.bitwiseOR(y))
  }

  /** [[packExpr]] on the driver: the CK of one tuple. */
  def pack(tuple: Array[Long]): Long = {
    val b = bitsPerAttr(tuple.length)
    var key = 0L
    var i = 0
    while (i < tuple.length) { key = (key << b) | tuple(i); i += 1 }
    key
  }

  /** [[unpackExprs]] on the driver: attribute `i` of a CK of the given arity. */
  def unpack(key: Long, arity: Int, i: Int): Long = {
    val b = bitsPerAttr(arity)
    val shifted = key >> (b * (arity - 1 - i))
    if (i == 0) shifted else shifted & ((1L << b) - 1)
  }

  /** Unpack a CK column back into c0..c{arity-1}. */
  def unpackExprs(arity: Int, ck: Column): Seq[Column] = {
    val b = bitsPerAttr(arity)
    val mask = (1L << b) - 1
    (0 until arity).map { i =>
      val shifted = shiftright(ck, b * (arity - 1 - i))
      (if (i == 0) shifted else shifted.bitwiseAND(lit(mask))).as(s"c$i")
    }
  }

  /** Generic dedup (FAST-DEDUP off, unpackable tuples, or a master without
    * a key set).
    */
  def generic(df: DataFrame, numPartitions: Int): DataFrame =
    df.repartition(math.max(1, numPartitions), df.columns.map(col): _*)
      .dropDuplicates(df.columns.toIndexedSeq)
}
