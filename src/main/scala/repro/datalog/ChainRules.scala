package repro.datalog

/** Extraction of "grammar-shaped" rules over binary relations — the fragment
  * Graspan (context-free grammar over graphs) and BDDBDDB-style relational
  * products handle naturally. A rule qualifies when its body is a *chain* of
  * binary atoms (each atom consumed forward or reversed) threading fresh
  * intermediate variables from the head's first variable to its second:
  *
  *  - `BinaryChain`:  H(x,y) :- chain from x to y    (optional x != y guard)
  *  - `SelfLoop`:     H(x,x) :- chain starting at x  (end unconstrained)
  *  - `UnaryCopy`:    H(y)   :- U(y)
  *  - `UnaryChain`:   H(y)   :- U(x), chain from x to y
  *
  * PBME's chain evaluator, Graspan-lite and BDD-lite take programs in this
  * fragment; outside it (aggregation, negation, constants, non-chain joins,
  * arity > 2) the evaluator declines and the two baselines reject.
  */
object ChainRules {

  /** One chain step: follow `pred` edges forward or reversed. */
  final case class Sym(pred: String, reversed: Boolean)

  sealed trait ChainRule { def head: String }
  final case class BinaryChain(head: String, syms: Seq[Sym], neqEnds: Boolean) extends ChainRule
  final case class SelfLoop(head: String, syms: Seq[Sym]) extends ChainRule
  final case class UnaryCopy(head: String, src: String) extends ChainRule
  final case class UnaryChain(head: String, start: String, syms: Seq[Sym]) extends ChainRule

  /** Extract chain rules for the whole program, or explain why one rule is
    * outside the fragment.
    */
  def extract(program: Program, arities: Map[String, Int]): Either[String, Seq[ChainRule]] = {
    val out = Seq.newBuilder[ChainRule]
    for (r <- program.rules) extractRule(r, arities) match {
      case Right(cr) => out += cr
      case Left(err) => return Left(s"$err in rule: $r")
    }
    Right(out.result())
  }

  def extractRule(r: Rule, arities: Map[String, Int]): Either[String, ChainRule] = {
    if (r.negatedAtoms.nonEmpty) return Left("negation is outside the chain fragment")
    if (r.head.hasAgg) return Left("aggregation is outside the chain fragment")
    if (r.body.isEmpty) return Left("facts are outside the chain fragment")
    if (r.positiveAtoms.exists(_.terms.exists(_.isInstanceOf[Num])))
      return Left("constants are outside the chain fragment")

    val headVars: Seq[String] = r.head.terms.map {
      case HExpr(EVar(v)) => v
      case _              => return Left("head must be plain variables")
    }

    headVars match {
      case Seq(hx, hy) =>
        val binaries = r.positiveAtoms
        if (binaries.exists(a => arities(a.pred) != 2))
          return Left("all body atoms must be binary")
        val neq = r.comparisons match {
          case Seq()                                   => false
          case Seq(BCmp(CmpOp.Ne, EVar(a), EVar(b)))
              if Set(a, b) == Set(hx, hy) && hx != hy  => true
          case _ => return Left("only an x != y guard between head variables is supported")
        }
        if (hx == hy) {
          if (neq) Left("self-loop head cannot carry a != guard")
          else findChain(binaries, hx, None).map(SelfLoop(r.head.pred, _))
            .toRight("body is not a chain from the head variable")
        } else {
          findChain(binaries, hx, Some(hy)).map(BinaryChain(r.head.pred, _, neq))
            .toRight("body is not a chain between the head variables")
        }
      case Seq(hy) =>
        if (r.comparisons.nonEmpty) return Left("comparisons unsupported on unary heads")
        r.positiveAtoms match {
          case Seq(BAtom(p, Seq(Var(v)), _)) if arities(p) == 1 && v == hy =>
            Right(UnaryCopy(r.head.pred, p))
          case atoms =>
            val (unaries, binaries) = atoms.partition(a => arities(a.pred) == 1)
            unaries match {
              case Seq(BAtom(u, Seq(Var(sv)), _)) =>
                findChain(binaries, sv, Some(hy))
                  .map(UnaryChain(r.head.pred, u, _))
                  .toRight("body is not a chain from the unary start")
              case _ => Left("unary head needs exactly one unary start atom")
            }
        }
      case _ => Left("only unary or binary heads are supported")
    }
  }

  /** Backtracking search for an ordering/orientation of `atoms` forming a
    * simple chain from `start` (to `end` if given, else anywhere).
    */
  private def findChain(atoms: Seq[BAtom], start: String, end: Option[String]): Option[Seq[Sym]] = {
    def vars(a: BAtom): (String, String) = (a.terms: @unchecked) match {
      case Seq(Var(x), Var(y)) => (x, y)
    }
    def go(cur: String, remaining: Seq[BAtom], visited: Set[String], acc: Vector[Sym]): Option[Seq[Sym]] = {
      if (remaining.isEmpty) {
        if (end.forall(_ == cur)) Some(acc) else None
      } else {
        remaining.indices.iterator.flatMap { i =>
          val a = remaining(i)
          val (x, y) = vars(a)
          val rest = remaining.patch(i, Nil, 1)
          val fwd =
            if (x == cur && !visited(y) && (end.contains(y) || !end.contains(y)))
              go(y, rest, visited + y, acc :+ Sym(a.pred, reversed = false))
            else None
          lazy val rev =
            if (y == cur && !visited(x))
              go(x, rest, visited + x, acc :+ Sym(a.pred, reversed = true))
            else None
          fwd.orElse(rev)
        }.nextOption()
      }
    }
    // `end` may legitimately coincide with an intermediate only at the last
    // step, which the visited-set already enforces (end starts unvisited).
    go(start, atoms, Set(start), Vector.empty)
  }
}
