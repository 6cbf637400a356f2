package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.broadcast

/** Set difference ΔR ← R_δ − R (Algorithm 1 line 12) with the two physical
  * translations of §5.1 and the Appendix-A cost model choosing between them.
  *
  * The hash-build side is expressed with Spark `broadcast` hints, which force
  * a broadcast-hash join with the hinted relation as build side — the exact
  * lever QuickStep's optimizer exposes to RecStep:
  *
  *  - OPSD: one anti-join, hash table built on R (grows every iteration).
  *  - TPSD: r ← R ∩ R_δ built by probing the *larger* side against a hash
  *    table on the smaller, then ΔR ← R_δ − r with a hash table on r.
  *
  * When the would-be build side exceeds the broadcast budget the join falls
  * back to sort-merge, modelling the paper's increasingly expensive build
  * phase on a growing R.
  *
  * The joins match on column names (the using-columns form) rather than on
  * `l(c) === r(c)`: R_δ and R often descend from the same plan and share
  * attribute ids, which makes such a condition trivially true.
  */
object SetDifference {

  /** Per-iteration decision inputs: exact |R| and |R_δ| (from the analyze
    * calls), α from calibration, and μ from the previous iteration.
    */
  final case class Decision(useTpsd: Boolean, beta: Double)

  /** Appendix-A cost model: OPSD iff β ≤ 1; TPSD iff β ≥ 2α/(α−1); in the
    * open interval use the previous iteration's μ: TPSD iff
    * β(α−1) > α + α/μ (from equation (5)).
    */
  def decide(rCount: Long, deltaCount: Long, alpha: Double, muPrev: Double): Decision = {
    require(alpha > 1.0, s"alpha must exceed 1 (build costs more than probe), got $alpha")
    val beta = if (deltaCount == 0) Double.PositiveInfinity else rCount.toDouble / deltaCount
    val hi = 2 * alpha / (alpha - 1)
    val useTpsd =
      if (beta <= 1.0) false
      else if (beta >= hi) true
      else beta * (alpha - 1) > alpha + alpha / math.max(muPrev, 1.0)
    Decision(useTpsd, beta)
  }

  private def hinted(df: DataFrame, rows: Long, budget: Long): DataFrame =
    if (rows >= 0 && rows <= budget) broadcast(df) else df

  /** One-phase set difference: R_δ anti-join R, hash on R. */
  def opsd(rDelta: DataFrame, r: DataFrame, rRows: Long, broadcastRows: Long): DataFrame = {
    val rb = hinted(r, rRows, broadcastRows)
    rDelta.join(rb, rb.columns.toSeq, "left_anti")
  }

  /** Two-phase set difference: intersection first (hash on the smaller of
    * R, R_δ), then anti-join against the intersection.
    */
  def tpsd(
      rDelta: DataFrame, r: DataFrame,
      rRows: Long, deltaRows: Long, broadcastRows: Long,
  ): (DataFrame, DataFrame) = {
    // r∩ = probe the larger side against a hash table on the smaller.
    val inter =
      if (deltaRows <= rRows) {
        val b = hinted(rDelta, deltaRows, broadcastRows)
        r.join(b, b.columns.toSeq, "left_semi")
      } else {
        val b = hinted(r, rRows, broadcastRows)
        rDelta.join(b, b.columns.toSeq, "left_semi")
      }
    // |r∩| <= min(|R|,|R_δ|); use |R_δ| as its (upper-bound) size proxy.
    val interB = hinted(inter, math.min(rRows, deltaRows), broadcastRows)
    (rDelta.join(interB, interB.columns.toSeq, "left_anti"), inter)
  }
}
