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

/** Configuration of the RecStep engine; every optimization of §5 is
  * independently switchable so the Figure-2 ablation can be reproduced.
  *
  * There are no tuning knobs (Table 1: RecStep needs no tuning). The
  * thresholds OOF applies to its statistics (broadcast size, the small-Δ
  * cut-off, DSD's α, the compaction period) are constants of the engine's
  * OOF policy, and the partition budget is the session's
  * `spark.sql.shuffle.partitions`.
  */
final case class RecStepConf(
    /** Unified IDB Evaluation: all subqueries for one IDB in a single plan. */
    uie: Boolean = true,
    /** Optimization On the Fly. */
    oof: OofMode = OofMode.Adaptive,
    /** Dynamic Set Difference: the Appendix-A cost model picks OPSD or TPSD
      * each iteration; off, every set difference is OPSD. */
    dsd: Boolean = true,
    /** Evaluation as One Single Transaction: in-memory materialization only;
      * when false each iteration commits to disk (reliable checkpoint) in
      * the session's checkpoint dir, or, if none is set, in a temporary one
      * that is deleted when the evaluation returns.
      */
    eost: Boolean = true,
    /** FAST-DEDUP via compact concatenated keys + specialized hash set. */
    fastDedup: Boolean = true,
    /** Parallel Bit-Matrix Evaluation for chain-shaped programs (§5.3). */
    pbme: Boolean = false,
    /** PBME is only built when the active domain fits (§5.3). */
    pbmeMaxVertices: Int = 32 * 1024,
    /** Hard cap on iterations per stratum; a stratum still deriving new
      * facts at the cap fails with [[IterationLimitException]]. */
    maxIterations: Int = 100_000,
)

object RecStepConf {
  /** The paper's full configuration (all optimizations on, PBME available). */
  val default: RecStepConf = RecStepConf(pbme = true)
  /** Everything off — "RecStep-NO-OP" in Figure 2. */
  val noOp: RecStepConf = RecStepConf(
    uie = false, oof = OofMode.NoAnalyze, dsd = false,
    eost = false, fastDedup = false, pbme = false)
}
