package repro.core

import org.apache.spark.sql.Row
import repro.datalog._
import repro.util.ConcurrentLongSet
import scala.collection.mutable

/** The small-Δ driver tier of a linear recursive stratum: an iteration whose
  * Δ holds a handful of tuples runs on the driver, with no Spark plan or
  * job. OOF decides where each iteration runs ([[OofPolicy.onDriver]]).
  *
  * Each rule reads Δ at its one same-stratum atom, as packed keys. Every
  * other atom probes a hash index of a fixed relation (an EDB or an IDB of an
  * earlier stratum) collected to the driver, and each head key goes straight
  * into the IDB's stratum-long key set ([[KeySets]]): a key the set did not
  * hold yet is a tuple of ΔR. That is Soufflé's indexed nested-loop join over
  * a tiny Δ, where a Spark iteration spends tens of milliseconds planning
  * and scheduling.
  *
  * The keys the tier derives stay here until [[leave]] hands them back, and
  * the engine materializes them as pieces of R.
  *
  * It shares no code with Souffle-lite or `NaiveEvaluator`: both check the
  * engine, so they must not share its bugs.
  */
private[core] final class DriverTier(stratum: Analyzer.Stratum, fixed: String => DriverTier.Relation) {
  import DriverTier._

  /** One plan per (rule, same-stratum atom); linear rules have at most one. */
  private val plans: Seq[Plan] = for {
    rule <- stratum.rules
    atom <- rule.positiveAtoms.find(a => stratum.preds(a.pred)).toSeq
  } yield compile(rule, atom, fixed)

  private final class State {
    /** Δ's keys while Δ lives on the driver. */
    var delta: Array[Long] = Array.emptyLongArray
    /** Whether the tier derived Δ, so that no piece of R holds it yet. */
    var derived = false
    /** Keys the tier derived before Δ, held by no piece of R yet. */
    val older = new mutable.ArrayBuilder.ofLong
  }
  private val states = mutable.Map.empty[String, State]

  /** Does Δ of `pred` live here? */
  def holds(pred: String): Boolean = states.contains(pred)

  /** Takes over Δ of `pred`, whose keys a piece of R already holds. */
  def enter(pred: String, keys: Array[Long]): Unit = {
    val st = new State
    st.delta = keys
    states(pred) = st
  }

  /** |Δ| of `pred` as the last iteration left it. */
  def deltaRows(pred: String): Long = states.get(pred).fold(0L)(_.delta.length.toLong)

  /** Runs one semi-naïve iteration over the Δs held here, inserting the head
    * keys into the sets `keySet` returns. Every rule reads the Δs the
    * iteration started with. Returns |R_t| of each IDB, the head keys derived
    * before the insert.
    */
  def iterate(keySet: String => ConcurrentLongSet): Map[String, Long] = {
    checkInterrupt()
    val fresh = mutable.Map.empty[String, mutable.ArrayBuilder.ofLong]
    val produced = mutable.Map.empty[String, Long].withDefaultValue(0L)
    for (plan <- plans; st <- states.get(plan.deltaPred) if st.delta.nonEmpty) {
      val out = fresh.getOrElseUpdate(plan.headPred, new mutable.ArrayBuilder.ofLong)
      produced(plan.headPred) += plan.run(st.delta, keySet(plan.headPred), out)
    }
    for (pred <- stratum.preds) {
      val st = states.getOrElseUpdate(pred, new State)
      if (st.derived) st.older.addAll(st.delta, 0, st.delta.length)
      st.delta = fresh.get(pred).fold(Array.emptyLongArray)(_.result())
      st.derived = true
    }
    stratum.preds.iterator.map(p => p -> produced(p)).toMap
  }

  /** Hands `pred`'s keys back to Spark: the keys derived here before Δ, and
    * Δ if the tier derived it (empty otherwise: a piece of R holds it).
    * Afterwards the tier holds nothing of `pred`.
    */
  def leave(pred: String): (Array[Long], Array[Long]) = states.remove(pred) match {
    case Some(st) => (st.older.result(), if (st.derived) st.delta else Array.emptyLongArray)
    case None     => (Array.emptyLongArray, Array.emptyLongArray)
  }
}

private[core] object DriverTier {

  /** Check the interrupt flag every this many Δ tuples. */
  private val InterruptEvery = 4096

  /** Throws on an interrupt and, like every method that throws
    * `InterruptedException`, clears the flag: the engine's cleanup that
    * follows waits on Spark, and a set flag would fail the wait.
    */
  private def checkInterrupt(): Unit =
    if (Thread.interrupted()) throw new InterruptedException("driver-tier iteration interrupted")

  /** A fixed relation collected to the driver, one primitive array per
    * column, with its hash indexes built on first use.
    */
  final class Relation(val cols: Array[Array[Long]], val size: Int) {
    private val indexes = mutable.Map.empty[Long, Index]

    /** The index on `keyCols` (ascending column numbers). */
    def index(keyCols: Array[Int]): Index =
      indexes.getOrElseUpdate(keyCols.foldLeft(0L)((m, c) => m | (1L << c)), new Index(this, keyCols))
  }

  object Relation {
    def apply(rows: Array[Row], arity: Int): Relation = {
      val cols = Array.fill(arity)(new Array[Long](rows.length))
      var r = 0
      while (r < rows.length) {
        var c = 0
        while (c < arity) { cols(c)(r) = rows(r).getLong(c); c += 1 }
        r += 1
      }
      new Relation(cols, rows.length)
    }
  }

  /** A hash index of a relation on some of its columns, as two int arrays:
    * the row ids grouped by the key's bucket, and each bucket's first
    * position. Rows of one bucket may have different keys, so a probe
    * compares the key ([[matches]]). With no key column every row is in
    * bucket 0.
    */
  final class Index(rel: Relation, keyCols: Array[Int]) {
    private val bits =
      if (keyCols.isEmpty) 0 else 32 - Integer.numberOfLeadingZeros(math.max(1, rel.size) - 1) max 1
    private val start = new Array[Int]((1 << bits) + 1)
    private val ids = new Array[Int](rel.size)

    locally {
      val bucketOf = Array.tabulate(rel.size) { r =>
        var h = 0L
        var i = 0
        while (i < keyCols.length) { h = combine(h, rel.cols(keyCols(i))(r)); i += 1 }
        spread(h)
      }
      bucketOf.foreach(b => start(b + 1) += 1)
      for (b <- 1 until start.length) start(b) += start(b - 1)
      val next = java.util.Arrays.copyOf(start, start.length - 1)
      for (r <- 0 until rel.size) { ids(next(bucketOf(r))) = r; next(bucketOf(r)) += 1 }
    }

    def bucket(key: Array[Long]): Int = {
      var h = 0L
      var i = 0
      while (i < key.length) { h = combine(h, key(i)); i += 1 }
      spread(h)
    }
    def first(bucket: Int): Int = start(bucket)
    def end(bucket: Int): Int = start(bucket + 1)
    def row(i: Int): Int = ids(i)

    /** Does row `r` hold `key` on the key columns? */
    def matches(r: Int, key: Array[Long]): Boolean = {
      var i = 0
      while (i < key.length) {
        if (rel.cols(keyCols(i))(r) != key(i)) return false
        i += 1
      }
      true
    }

    def contains(key: Array[Long]): Boolean = {
      val b = bucket(key)
      var i = start(b)
      while (i < start(b + 1)) {
        if (matches(ids(i), key)) return true
        i += 1
      }
      false
    }

    private def combine(h: Long, v: Long): Long = (h ^ fmix(v)) * 0x9e3779b97f4a7c15L
    private def spread(h: Long): Int = if (bits == 0) 0 else (fmix(h) >>> (64 - bits)).toInt
  }

  /** MurmurHash3's 64-bit finalizer. */
  private def fmix(k: Long): Long = {
    var h = k
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    h ^ (h >>> 33)
  }

  // Where a value comes from: slot s >= 0 of the bindings, or, for slot -1,
  // a constant.
  private final val Const = -1

  /** How an atom's columns meet the bindings. Column `cols(i)` equals
    * `consts(i)` where `slots(i)` is [[Const]]; otherwise it binds slot
    * `slots(i)` where `binds(i)`, and must equal it where not (a variable
    * bound earlier, or repeated in the atom).
    */
  private final class Pattern(val cols: Array[Int], val slots: Array[Int], val binds: Array[Boolean],
                              val consts: Array[Long]) {
    /** Applies the pattern to one tuple; false if it does not match. */
    @inline def apply(value: Int => Long, regs: Array[Long]): Boolean = {
      var i = 0
      while (i < cols.length) {
        val v = value(cols(i))
        val s = slots(i)
        if (s == Const) { if (v != consts(i)) return false }
        else if (binds(i)) regs(s) = v
        else if (regs(s) != v) return false
        i += 1
      }
      true
    }
  }

  /** Values read from constants or bindings. */
  private final class Source(val slots: Array[Int], val consts: Array[Long]) {
    def fill(regs: Array[Long], out: Array[Long]): Unit = {
      var i = 0
      while (i < slots.length) {
        out(i) = if (slots(i) == Const) consts(i) else regs(slots(i))
        i += 1
      }
    }
  }

  /** A positive atom over a fixed relation: an index probe on the columns
    * the bindings fix, then [[rest]] on the others.
    */
  private final class Probe(val rel: Relation, val index: Index, val key: Source, val rest: Pattern) {
    val keyBuf = new Array[Long](key.slots.length)
  }

  /** A negated atom over a fixed relation: every column is fixed. */
  private final class Absent(val index: Index, val key: Source) {
    val keyBuf = new Array[Long](key.slots.length)
  }

  private final class Cmp(val op: CmpOp, val operands: Source) {
    val buf = new Array[Long](2)
  }

  /** A rule with Δ at its one same-stratum atom. */
  private final class Plan(val headPred: String, val deltaPred: String, deltaArity: Int,
                           deltaPattern: Pattern, probes: Array[Probe], cmps: Array[Cmp],
                           absents: Array[Absent], head: Source, slots: Int) {
    private val regs = new Array[Long](slots)
    private val tuple = new Array[Long](head.slots.length)
    private var set: ConcurrentLongSet = _
    private var out: mutable.ArrayBuilder.ofLong = _
    private var produced = 0L

    /** Joins every Δ key with the fixed atoms and inserts the head keys into
      * `set`, appending those it did not hold to `out`. Returns how many head
      * keys it derived.
      */
    def run(delta: Array[Long], set: ConcurrentLongSet, out: mutable.ArrayBuilder.ofLong): Long = {
      this.set = set
      this.out = out
      produced = 0L
      var i = 0
      while (i < delta.length) {
        if (i % InterruptEvery == InterruptEvery - 1) checkInterrupt()
        val k = delta(i)
        if (deltaPattern(c => Dedup.unpack(k, deltaArity, c), regs)) descend(0)
        i += 1
      }
      produced
    }

    private def descend(step: Int): Unit =
      if (step == probes.length) emit()
      else {
        val p = probes(step)
        p.key.fill(regs, p.keyBuf)
        val b = p.index.bucket(p.keyBuf)
        var i = p.index.first(b)
        val end = p.index.end(b)
        while (i < end) {
          val r = p.index.row(i)
          if (p.index.matches(r, p.keyBuf) && p.rest(c => p.rel.cols(c)(r), regs)) descend(step + 1)
          i += 1
        }
      }

    private def emit(): Unit = {
      var i = 0
      while (i < cmps.length) {
        val c = cmps(i)
        c.operands.fill(regs, c.buf)
        if (!c.op.holds(c.buf(0), c.buf(1))) return
        i += 1
      }
      i = 0
      while (i < absents.length) {
        val a = absents(i)
        a.key.fill(regs, a.keyBuf)
        if (a.index.contains(a.keyBuf)) return
        i += 1
      }
      head.fill(regs, tuple)
      val key = Dedup.pack(tuple)
      produced += 1
      if (set.add(key)) out.addOne(key)
    }
  }

  /** Compiles `rule` with Δ at `delta`, joining the other positive atoms in
    * body order. The tier runs only programs that CCK packs, which have no
    * arithmetic: every comparison operand and head term is a variable or a
    * constant.
    */
  private def compile(rule: Rule, delta: BAtom, fixed: String => Relation): Plan = {
    val slots = mutable.Map.empty[String, Int]
    def source(terms: Seq[Term]): Source = new Source(
      terms.map { case Var(n) => slots(n); case Num(_) => Const }.toArray,
      terms.map { case Num(v) => v; case Var(_) => 0L }.toArray)
    def pattern(terms: Seq[(Term, Int)]): Pattern = {
      val ps = terms.map {
        case (Num(v), c)                       => (c, Const, false, v)
        case (Var(n), c) if slots.contains(n) => (c, slots(n), false, 0L)
        case (Var(n), c)                       => slots(n) = slots.size; (c, slots(n), true, 0L)
      }
      new Pattern(ps.map(_._1).toArray, ps.map(_._2).toArray, ps.map(_._3).toArray, ps.map(_._4).toArray)
    }
    def term(e: Expr): Term = e match {
      case EVar(n) => Var(n)
      case ELit(v) => Num(v)
      case other   => throw new IllegalArgumentException(s"the driver tier has no arithmetic: $other in $rule")
    }

    val deltaPattern = pattern(delta.terms.zipWithIndex)
    val others = rule.positiveAtoms.filterNot(_ eq delta)
    val probes = others.map { atom =>
      val (keyed, rest) = atom.terms.zipWithIndex.partition {
        case (Num(_), _) => true
        case (Var(n), _) => slots.contains(n)
      }
      val rel = fixed(atom.pred)
      val key = source(keyed.map(_._1))
      new Probe(rel, rel.index(keyed.map(_._2).toArray), key, pattern(rest))
    }
    val cmps = rule.comparisons.map(c => new Cmp(c.op, source(Seq(term(c.l), term(c.r)))))
    val absents = rule.negatedAtoms.map { atom =>
      new Absent(fixed(atom.pred).index(atom.terms.indices.toArray), source(atom.terms))
    }
    val head = source(rule.head.terms.map {
      case HExpr(e) => term(e)
      case agg      => throw new IllegalArgumentException(s"the driver tier has no aggregates: $agg in $rule")
    })
    new Plan(rule.head.pred, delta.pred, delta.terms.size, deltaPattern, probes.toArray, cmps.toArray,
      absents.toArray, head, slots.size)
  }
}
