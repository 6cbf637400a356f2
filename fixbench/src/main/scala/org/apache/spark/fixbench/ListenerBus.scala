package org.apache.spark.fixbench

import org.apache.spark.SparkContext

/** Access to the listener bus's drain, which Spark keeps package-private:
  * a trace is read only after every event of the traced interval has been
  * delivered.
  */
object ListenerBus {
  def drain(sc: SparkContext, timeoutMs: Long = 60000L): Unit = sc.listenerBus.waitUntilEmpty(timeoutMs)
}
