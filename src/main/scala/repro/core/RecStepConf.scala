package repro.core

/** OOF (Optimization On the Fly, §5.1) modes, matching Figure 2's ablation:
  *  - Adaptive: per-iteration targeted stats (the RecStep default),
  *  - NoAnalyze ("OOF-NA"): the iteration-1 plan decisions are frozen,
  *  - FullAnalyze ("OOF-FA"): all possible stats are recollected on every
  *    updated table each iteration (pure overhead beyond Adaptive).
  */
sealed trait OofMode
object OofMode {
  case object Adaptive    extends OofMode
  case object NoAnalyze   extends OofMode
  case object FullAnalyze extends OofMode
}

/** DSD (Dynamic Set Difference, §5.1) strategy selection. */
sealed trait DsdMode
object DsdMode {
  /** Always one-phase (anti-join building on R). */
  case object Opsd extends DsdMode
  /** Always two-phase (intersection first). */
  case object Tpsd extends DsdMode
  /** Per-iteration choice via the Appendix-A cost model. */
  case object Dynamic extends DsdMode
}

/** Configuration of the RecStep engine; every optimization of §5 is
  * independently switchable so the Figure-2 ablation can be reproduced.
  */
final case class RecStepConf(
    /** Unified IDB Evaluation: all subqueries for one IDB in a single plan. */
    uie: Boolean = true,
    /** Optimization On the Fly. */
    oof: OofMode = OofMode.Adaptive,
    /** Dynamic Set Difference. */
    dsd: DsdMode = DsdMode.Dynamic,
    /** Evaluation as One Single Transaction: in-memory materialization only;
      * when false each iteration commits to disk (reliable checkpoint).
      */
    eost: Boolean = true,
    /** FAST-DEDUP via compact concatenated keys + specialized hash set. */
    fastDedup: Boolean = true,
    /** Parallel Bit-Matrix Evaluation for TC/SG-shaped programs (§5.3). */
    pbme: Boolean = false,
    /** PBME is only built when the active domain fits (§5.3). */
    pbmeMaxVertices: Int = 32 * 1024,
    /** Build/probe cost ratio α for the DSD cost model (Appendix A);
      * calibrate offline with [[DsdCostModel.calibrate]].
      */
    alpha: Double = 2.0,
    /** Shuffle/partition budget (the paper's core count analog). */
    shufflePartitions: Int = 64,
    /** Rows below which a relation side is broadcast (hash-build side). */
    broadcastRows: Long = 1_500_000L,
    /** Below this R_δ size the specialized machinery (TPSD + its μ-refresh
      * analyze, CCK hash-table dedup) cannot pay for its own per-query
      * overhead (appendix C's caveat on OOF's extra queries), so the engine
      * falls back to the one-shot operators.
      */
    smallDeltaRows: Long = 65_536L,
    /** Compact the growing union-of-deltas plan every this many iterations. */
    compactEvery: Int = 24,
    /** Hard cap on iterations per stratum; a stratum still deriving new
      * facts at the cap fails with [[IterationLimitException]]. */
    maxIterations: Int = 100_000,
)

object RecStepConf {
  /** The paper's full configuration (all optimizations on, PBME available). */
  val default: RecStepConf = RecStepConf(pbme = true)
  /** Everything off — "RecStep-NO-OP" in Figure 2. */
  val noOp: RecStepConf = RecStepConf(
    uie = false, oof = OofMode.NoAnalyze, dsd = DsdMode.Opsd,
    eost = false, fastDedup = false, pbme = false)
}
