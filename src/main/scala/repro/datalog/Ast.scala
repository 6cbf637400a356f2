package repro.datalog

/** Abstract syntax for the Datalog dialect of the RecStep paper (§3):
  * pure Datalog + stratified negation + aggregation (MIN/MAX/SUM/COUNT/AVG),
  * comparison literals, and arithmetic inside aggregate arguments.
  *
  * All constants are integers: the paper's inputs are active-domain-mapped
  * integers (§5.2, footnote 2), and every engine in this repo represents
  * tuples as `Long`s.
  */
sealed trait Term extends Product with Serializable
/** A variable occurrence (anonymous `_` is desugared to a fresh variable). */
final case class Var(name: String) extends Term
/** An integer constant. */
final case class Num(value: Long) extends Term

/** Arithmetic expressions over body variables — used in comparison literals
  * and aggregate arguments (e.g. `MIN(d1 + d2)` in SSSP).
  */
sealed trait Expr extends Product with Serializable {
  /** All variables referenced by this expression. */
  def vars: Set[String] = this match {
    case EVar(n)    => Set(n)
    case ELit(_)    => Set.empty
    case EAdd(l, r) => l.vars ++ r.vars
    case ESub(l, r) => l.vars ++ r.vars
    case EMul(l, r) => l.vars ++ r.vars
  }

  /** Evaluate under a binding of every referenced variable; a result outside
    * the Long range raises `ArithmeticException` instead of wrapping.
    */
  def eval(binding: Map[String, Long]): Long = this match {
    case EVar(n)    => binding(n)
    case ELit(v)    => v
    case EAdd(l, r) => Math.addExact(l.eval(binding), r.eval(binding))
    case ESub(l, r) => Math.subtractExact(l.eval(binding), r.eval(binding))
    case EMul(l, r) => Math.multiplyExact(l.eval(binding), r.eval(binding))
  }
}
final case class EVar(name: String) extends Expr
final case class ELit(value: Long) extends Expr
final case class EAdd(l: Expr, r: Expr) extends Expr
final case class ESub(l: Expr, r: Expr) extends Expr
final case class EMul(l: Expr, r: Expr) extends Expr

/** Aggregation operators permitted in rule heads (§3.3). */
sealed abstract class AggOp(val name: String) extends Product with Serializable
object AggOp {
  case object Min   extends AggOp("MIN")
  case object Max   extends AggOp("MAX")
  case object Sum   extends AggOp("SUM")
  case object Count extends AggOp("COUNT")
  case object Avg   extends AggOp("AVG")
  val all: Seq[AggOp] = Seq(Min, Max, Sum, Count, Avg)
  def fromName(s: String): Option[AggOp] = all.find(_.name == s.toUpperCase)
  /** MIN/MAX are the monotone operators allowed inside recursion. */
  def monotone(op: AggOp): Boolean = op == Min || op == Max
}

/** A head term: either a plain expression (variable/constant) or an
  * aggregate over an arithmetic expression of body variables.
  */
sealed trait HeadTerm extends Product with Serializable
final case class HExpr(expr: Expr) extends HeadTerm
final case class HAgg(op: AggOp, arg: Expr) extends HeadTerm

/** Comparison operators for body literals like `x != y`. */
sealed abstract class CmpOp(val sym: String) extends Product with Serializable {
  def holds(l: Long, r: Long): Boolean = this match {
    case CmpOp.Eq => l == r
    case CmpOp.Ne => l != r
    case CmpOp.Lt => l < r
    case CmpOp.Le => l <= r
    case CmpOp.Gt => l > r
    case CmpOp.Ge => l >= r
  }
}
object CmpOp {
  case object Eq extends CmpOp("=")
  case object Ne extends CmpOp("!=")
  case object Lt extends CmpOp("<")
  case object Le extends CmpOp("<=")
  case object Gt extends CmpOp(">")
  case object Ge extends CmpOp(">=")
}

/** A body literal: a (possibly negated) relational atom or a comparison. */
sealed trait BodyLit extends Product with Serializable
final case class BAtom(pred: String, terms: Seq[Term], negated: Boolean = false) extends BodyLit {
  def vars: Set[String] = terms.collect { case Var(n) => n }.toSet
}
final case class BCmp(op: CmpOp, l: Expr, r: Expr) extends BodyLit {
  def vars: Set[String] = l.vars ++ r.vars
}

/** A rule head: predicate name and head terms (plain or aggregated). */
final case class Head(pred: String, terms: Seq[HeadTerm]) {
  def arity: Int = terms.size
  def hasAgg: Boolean = terms.exists(_.isInstanceOf[HAgg])
  /** Positions of non-aggregated (group-key) head terms. */
  def keyPositions: Seq[Int] = terms.zipWithIndex.collect { case (HExpr(_), i) => i }
  def aggPositions: Seq[Int] = terms.zipWithIndex.collect { case (HAgg(_, _), i) => i }
}

/** A Datalog rule `head :- body.` */
final case class Rule(head: Head, body: Seq[BodyLit]) {
  def positiveAtoms: Seq[BAtom] = body.collect { case a: BAtom if !a.negated => a }
  def negatedAtoms: Seq[BAtom]  = body.collect { case a: BAtom if a.negated => a }
  def comparisons: Seq[BCmp]    = body.collect { case c: BCmp => c }
  def bodyPreds: Set[String]    = body.collect { case a: BAtom => a.pred }.toSet

  /** Variables bound by positive atoms (the only safe binders). */
  def positiveVars: Set[String] = positiveAtoms.flatMap(_.vars).toSet

  /** Variables referenced anywhere in the head. */
  def headVars: Set[String] = head.terms.flatMap {
    case HExpr(e)   => e.vars
    case HAgg(_, e) => e.vars
  }.toSet

  override def toString: String = {
    def t(x: Term): String = x match { case Var(n) => n; case Num(v) => v.toString }
    def e(x: Expr): String = x match {
      case EVar(n) => n; case ELit(v) => v.toString
      case EAdd(l, r) => s"${e(l)}+${e(r)}"; case ESub(l, r) => s"${e(l)}-${e(r)}"
      case EMul(l, r) => s"${e(l)}*${e(r)}"
    }
    val hd = head.terms.map {
      case HExpr(x)     => e(x)
      case HAgg(op, x)  => s"${op.name}(${e(x)})"
    }.mkString(", ")
    val bd = body.map {
      case BAtom(p, ts, neg) => (if (neg) "!" else "") + s"$p(${ts.map(t).mkString(", ")})"
      case BCmp(op, l, r)    => s"${e(l)} ${op.sym} ${e(r)}"
    }.mkString(", ")
    s"${head.pred}($hd) :- $bd."
  }
}

/** A Datalog program: an ordered set of rules. */
final case class Program(rules: Seq[Rule]) {
  /** Predicates appearing in some head (derived relations). */
  def idbPreds: Set[String] = rules.map(_.head.pred).toSet
  /** Predicates appearing only in bodies (input relations). */
  def edbPreds: Set[String] = rules.flatMap(_.bodyPreds).toSet -- idbPreds
  override def toString: String = rules.mkString("\n")
}
