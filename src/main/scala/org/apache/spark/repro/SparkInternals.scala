package org.apache.spark.repro

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDDOperationScope

/** The Spark calls the engine needs that Spark keeps to its own packages. */
object SparkInternals {

  /** Drops RDD `rddId`'s cached blocks the way Spark's ContextCleaner does.
    * `RDD.unpersist` would do the same, but logs a warning for every locally
    * checkpointed RDD that it cannot be recomputed afterwards.
    *
    * The call waits until the blocks are gone. Without the wait, the removal
    * ran on Spark's storage threads while the next iteration's jobs ran, and
    * in fixbench's `csda-tiny-delta` it made each evaluation 7 % slower in
    * both wall and CPU time (six alternating runs on one processor).
    */
  def unpersist(sc: SparkContext, rddId: Int): Unit = sc.unpersistRDD(rddId, blocking = true)

  /** Runs `body` and, if it fails, drops every RDD it cached. That includes
    * the RDD of an eager checkpoint that an interrupt stopped before it
    * returned its DataFrame, which nothing else can reach.
    *
    * Each RDD records the operation scope it was made in. `body` runs in a
    * new scope that RDD operations inside do not nest under, so every RDD a
    * checkpoint caches carries it. A SQL plan's own RDDs take their
    * operators' scopes instead, but none of those is cached.
    */
  def releasingOnFailure[T](sc: SparkContext, name: String)(body: => T): T =
    RDDOperationScope.withScope(sc, name, allowNesting = false, ignoreParent = true) {
      val scope = Some(RDDOperationScope.fromJson(sc.getLocalProperty(SparkContext.RDD_SCOPE_KEY)))
      try body
      catch {
        case t: Throwable =>
          try sc.getPersistentRDDs.valuesIterator.filter(_.scope == scope).foreach(r => unpersist(sc, r.id))
          catch { case e: Throwable => t.addSuppressed(e) }
          throw t
      }
    }
}
