package org.apache.spark.repro

import org.apache.spark.SparkContext

/** The one Spark call the engine needs that Spark keeps to its own packages. */
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
}
