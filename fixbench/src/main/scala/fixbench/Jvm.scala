package fixbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import scala.jdk.CollectionConverters._

/** Process-wide counters read before and after a measured interval. */
final case class JvmSample(
    cpuNs: Long, jitMs: Long, gcMs: Long, gcCount: Long,
    codegenClasses: Long, codegenNs: Long, stealTicks: Long,
) {
  def -(o: JvmSample): JvmSample = JvmSample(
    cpuNs - o.cpuNs, jitMs - o.jitMs, gcMs - o.gcMs, gcCount - o.gcCount,
    codegenClasses - o.codegenClasses, codegenNs - o.codegenNs, stealTicks - o.stealTicks)
}

object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val jit = ManagementFactory.getCompilationMXBean
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq

  def sample(): JvmSample = JvmSample(
    cpuNs = os.getProcessCpuTime,
    jitMs = jit.getTotalCompilationTime,
    gcMs = gcs.map(_.getCollectionTime).sum,
    gcCount = gcs.map(_.getCollectionCount).sum,
    // Spark compiles each distinct generated class once and caches it.
    codegenClasses = CodegenMetrics.METRIC_COMPILATION_TIME.getCount,
    codegenNs = CodeGenerator.compileTime,
    stealTicks = stealTicks(),
  )

  /** Time the hypervisor ran other guests on this machine's CPUs, summed
    * over all CPUs, in clock ticks of 1/100 s (the eighth field of
    * /proc/stat's "cpu" line); 0 where the file is absent.
    */
  private def stealTicks(): Long =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().next().trim.split("\\s+").lift(8).fold(0L)(_.toLong)
      finally src.close()
    } catch { case _: java.io.IOException => 0L }

  /** Start a new heap-peak window. */
  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since [[resetHeapPeak]], bytes. */
  def heapPeakBytes(): Long = heapPools.map(_.getPeakUsage.getUsed).sum
}
