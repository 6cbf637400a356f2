package repro.baselines.bigdatalog

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.datalog.{Analyzer, Program}

/** BigDatalog-lite: the distributed-dataflow baseline — semi-naïve Datalog
  * on Spark *without* RecStep's optimizations, the way BigDatalog [23]
  * evaluates recursion on (set-semantic) RDDs:
  *
  *  - per-rule evaluation jobs (no unified IDB plans),
  *  - generic `dropDuplicates` set semantics (no compact-key dedup),
  *  - a fixed plan every iteration (no per-iteration re-optimization),
  *  - static one-phase set difference,
  *  - in-memory caching of iterates (Spark's natural mode — EOST-equivalent).
  *
  * Like the real system it supports recursive monotone aggregation (MIN/MAX)
  * and non-linear rules, but **rejects mutual recursion** (Table 1).
  */
final class BigDatalogLite extends DatalogEngine {

  override def name: String = "BigDatalog-lite"

  override val capabilities: EngineCapabilities = EngineCapabilities(
    mutualRecursion = false, nonRecursiveAggregation = true,
    recursiveAggregation = true, negation = true)

  // The real BigDatalog's SetRDD keeps per-iteration stats and sizes its
  // shuffles to the delta (its partition-aware joins), so it gets adaptive
  // stats here; what it lacks relative to RecStep is exactly the paper's
  // contribution set: UIE, DSD, compact-key dedup, and PBME.
  private val inner = new RecStepEngine(RecStepConf(
    uie = false,
    oof = OofMode.Adaptive,
    dsd = false,
    eost = true,
    fastDedup = false,
    pbme = false,
  ))

  override def evaluate(program: Program, edb: Map[String, DataFrame])(
      implicit spark: SparkSession): Map[String, DataFrame] = {
    val analysis = Analyzer.analyze(program)
    if (analysis.hasMutualRecursion)
      throw UnsupportedProgramException(name, "mutual recursion is not supported")
    inner.evaluate(program, edb)
  }
}
