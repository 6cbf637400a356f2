package repro.core

import java.util.concurrent.TimeoutException
import org.apache.spark.repro.SparkInternals
import org.apache.spark.sql.{Column, DataFrame, Observation, Row}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions.{count, lit}
import scala.concurrent.Await
import scala.concurrent.duration._

/** Materialization that also counts the rows it writes, in the same Spark
  * job: Algorithm 1's analyze as a by-product of the query, not a second one.
  *
  * The count is a Spark `Observation` on the plan. The eager checkpoint runs
  * its job inside the action, so the metric is final when the call returns;
  * it reaches the driver through the listener bus, so reading it waits, with
  * a bound.
  */
private[core] object Materialize {

  /** Longest wait for an observed metric after the job that computes it
    * returned (it normally arrives within milliseconds).
    */
  val MetricWait: FiniteDuration = 60.seconds

  /** Counts the rows flowing through a plan, plus any `extra` aggregates.
    * Use [[observed]] in exactly one action, then read [[metrics]].
    */
  final class Counter(df: DataFrame, extra: Column*) {
    private val obs = Observation()
    val observed: DataFrame = df.observe(obs, count(lit(1)), extra: _*)

    /** count(1) followed by the `extra` aggregates. */
    def metrics: Row =
      try Await.result(obs.future, MetricWait)
      catch {
        case _: TimeoutException => throw new IllegalStateException(
          s"observed metrics '${obs.name}' were not reported within $MetricWait of the job that computes them")
      }

    def rows: Long = metrics.getLong(0)
  }

  /** Eager checkpoint of `df`, in memory (`localCheckpoint`) or, when
    * `reliable`, written to the checkpoint dir; with its row count.
    */
  def apply(df: DataFrame, reliable: Boolean): (DataFrame, Long) = {
    val c = new Counter(df)
    val out = if (reliable) c.observed.checkpoint() else c.observed.localCheckpoint()
    (out, c.rows)
  }

  /** Frees the cached blocks of a relation that `localCheckpoint` returned;
    * no plan may read it afterwards. Anything else, such as a union of such
    * relations, is left alone, and a reliable checkpoint holds no blocks.
    */
  def release(df: DataFrame): Unit = df.queryExecution.logical match {
    case r: LogicalRDD => SparkInternals.unpersist(r.rdd.sparkContext, r.rdd.id)
    case _             => ()
  }
}
