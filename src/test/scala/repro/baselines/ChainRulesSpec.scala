package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.datalog.ChainRules._
import repro.datalog.{Analyzer, ChainRules, Parser}
import repro.programs.Programs

class ChainRulesSpec extends AnyFunSuite {

  private def extract(src: String) = {
    val p = Parser.parse(src)
    ChainRules.extract(p, Analyzer.analyze(p).arities)
  }

  test("TC extracts to a unary production and a 2-chain") {
    val Right(rules) = extract(Programs.tcSource)
    assert(rules == Seq(
      BinaryChain("tc", Seq(Sym("arc", false)), neqEnds = false),
      BinaryChain("tc", Seq(Sym("tc", false), Sym("arc", false)), neqEnds = false)))
  }

  test("SG base extracts with a reversed first step and != guard") {
    val Right(rules) = extract(Programs.sgSource)
    assert(rules.head == BinaryChain("sg",
      Seq(Sym("arc", true), Sym("arc", false)), neqEnds = true))
    assert(rules(1) == BinaryChain("sg",
      Seq(Sym("arc", true), Sym("sg", false), Sym("arc", false)), neqEnds = false))
  }

  test("CSPA extracts chains, reversed atoms, and self-loops") {
    val Right(rules) = extract(Programs.cspaSource)
    val byHead = rules.groupBy(_.head)
    assert(byHead("valueFlow").exists {
      case BinaryChain(_, Seq(Sym("valueFlow", false), Sym("valueFlow", false)), false) => true
      case _ => false
    })
    assert(byHead("memoryAlias").exists {
      case BinaryChain(_, Seq(Sym("dereference", true), Sym("valueAlias", false), Sym("dereference", false)), false) => true
      case _ => false
    })
    assert(byHead("valueFlow").count(_.isInstanceOf[SelfLoop]) == 2)
    assert(byHead("memoryAlias").count(_.isInstanceOf[SelfLoop]) == 2)
  }

  test("REACH extracts a unary copy and a unary chain") {
    val Right(rules) = extract(Programs.reachSource)
    assert(rules == Seq(
      UnaryCopy("reach", "id"),
      UnaryChain("reach", "reach", Seq(Sym("arc", false)))))
  }

  test("Andersen store rule threads through a reversed pointsTo") {
    val Right(rules) = extract(Programs.andersenSource)
    val store = rules(3)
    // pointsTo(z,w) :- store(y,x), pointsTo(y,z), pointsTo(x,w)
    // chain from z: pointsTo reversed (z->y), store fwd (y->x), pointsTo fwd (x->w)
    assert(store == BinaryChain("pointsTo",
      Seq(Sym("pointsTo", true), Sym("store", false), Sym("pointsTo", false)), neqEnds = false))
  }

  test("rejects negation") {
    assert(extract("a(x,y) :- e(x,y), !f(x,y).").isLeft)
  }

  test("rejects aggregation") {
    assert(extract("a(x, COUNT(y)) :- e(x,y).").isLeft)
  }

  test("rejects constants") {
    assert(extract("a(x,y) :- e(x,y), f(y, 3).").isLeft)
  }

  test("rejects non-chain (branching) bodies") {
    assert(extract("a(x,y) :- e(x,y), f(x,y).").isLeft)
  }

  test("rejects ternary atoms") {
    assert(extract("a(x,y) :- e(x,y,z).").isLeft)
  }

  test("rejects facts") {
    assert(extract("a(1,2).").isLeft)
  }

  test("self-loop heads extract with unconstrained chain end") {
    val Right(Seq(r)) = extract("a(x,x) :- e(y,x).")
    assert(r == SelfLoop("a", Seq(Sym("e", true))))
  }

  test("guard must relate the two head variables") {
    assert(extract("a(x,y) :- e(x,z), f(z,y), x != z.").isLeft)
  }
}
