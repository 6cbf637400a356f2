package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.datalog.Program

/** What a given engine supports — used by tests and by the Table 1
  * capability-matrix bench (each cell is *probed*, not hard-coded).
  */
final case class EngineCapabilities(
    mutualRecursion: Boolean,
    nonRecursiveAggregation: Boolean,
    recursiveAggregation: Boolean,
    negation: Boolean,
)

/** Thrown by an engine when the program uses a fragment it does not support
  * (e.g. BigDatalog + mutual recursion, Souffle + recursive aggregation).
  */
final case class UnsupportedProgramException(engine: String, reason: String)
    extends RuntimeException(s"$engine: $reason")

/** Thrown when a recursive stratum still has new facts after `limit`
  * iterations: what has been derived so far is not the fixpoint.
  */
final case class IterationLimitException(engine: String, preds: Seq[String], limit: Int)
    extends RuntimeException(
      s"$engine: stratum {${preds.mkString(", ")}} did not reach a fixpoint within $limit iterations")

/** Common engine interface. All relations are DataFrames with LongType
  * columns named c0..c{arity-1}; `evaluate` returns every IDB relation.
  */
trait DatalogEngine {
  def name: String
  def capabilities: EngineCapabilities
  def evaluate(program: Program, edb: Map[String, DataFrame])(implicit spark: SparkSession): Map[String, DataFrame]
}
