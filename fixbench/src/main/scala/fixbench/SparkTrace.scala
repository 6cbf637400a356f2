package fixbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** What Spark did during one traced interval, seen from a listener. */
final case class SparkCounts(
    jobsByCategory: Map[String, Int],
    tasks: Long,
    /** Wall time during which at least one job was running, seconds. */
    jobBusyS: Double,
    taskS: Double,
    taskCpuS: Double,
    shuffleWriteBytes: Long,
    shuffleWriteRecords: Long,
) {
  def jobs: Int = jobsByCategory.values.sum
}

/** Listener that attributes every job to the action that caused it. A job's
  * category comes from the SQL execution it ran under (job property
  * `spark.sql.execution.id`), whose start event names the action and its
  * call site, e.g. "localCheckpoint at RecStepEngine.scala:151". Stage names
  * cannot do this: with adaptive execution most jobs are shuffle stages
  * submitted from a thread pool under a generic call site. Broadcast
  * exchanges run as jobs of their own, tagged "broadcast exchange (runId …)".
  */
final class SparkTrace extends SparkListener {
  import SparkTrace._

  private val executionAction = mutable.Map.empty[Long, String]
  private val jobCategory = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  private var tasks = 0L
  private var taskNs, taskCpuNs, shuffleBytes, shuffleRecords = 0L

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized {
      // a nested execution belongs to the action of its root
      val root = e.rootExecutionId.getOrElse(e.executionId)
      executionAction(e.executionId) = executionAction.getOrElse(root, categoryOf(e.description))
    }
    case _ => ()
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(key: String) = Option(e.properties).flatMap(p => Option(p.getProperty(key)))
    val isBroadcast = Seq("spark.job.description", "spark.job.tags")
      .exists(k => prop(k).exists(_.contains("broadcast exchange")))
    jobCategory(e.jobId) =
      if (isBroadcast) Broadcast
      else prop("spark.sql.execution.id").flatMap(id => executionAction.get(id.toLong)).getOrElse(Other)
    jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(s => intervals += ((s, e.time)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      taskNs += m.executorRunTime * 1000000L
      taskCpuNs += m.executorCpuTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
    }
  }

  /** Counts since the listener was registered, with job-busy time clipped to
    * the wall-clock interval [fromMs, toMs].
    */
  def counts(fromMs: Long, toMs: Long): SparkCounts = synchronized {
    val byCategory = Categories.map(c => c -> jobCategory.valuesIterator.count(_ == c)).toMap
    SparkCounts(byCategory, tasks, busySeconds(intervals.toSeq, fromMs, toMs),
      taskNs / 1e9, taskCpuNs / 1e9, shuffleBytes, shuffleRecords)
  }
}

object SparkTrace {
  val Checkpoint = "checkpoint"
  val Count = "count"
  val Broadcast = "broadcast"
  val Other = "other"
  val Categories: Seq[String] = Seq(Checkpoint, Count, Broadcast, Other)

  /** Category of a SQL execution from its description ("<action> at <site>"). */
  def categoryOf(description: String): String = description.takeWhile(_ != ' ') match {
    case "localCheckpoint" | "checkpoint" => Checkpoint
    case "count"                          => Count
    case _                                => Other
  }

  /** Length of the union of `intervals`, clipped to [fromMs, toMs], in seconds. */
  def busySeconds(intervals: Seq[(Long, Long)], fromMs: Long, toMs: Long): Double = {
    var busy = 0L
    var reached = fromMs
    for ((s, e) <- intervals.sortBy(_._1)) {
      val start = math.max(s, reached)
      val end = math.min(e, toMs)
      if (end > start) { busy += end - start; reached = end }
    }
    busy / 1000.0
  }
}
