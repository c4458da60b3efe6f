package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** JVM-wide measurements and the metric record the result line carries. */
object Measure {
  def metric(value: Double, unit: String): mutable.LinkedHashMap[String, Any] =
    mutable.LinkedHashMap("value" -> value, "unit" -> unit)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Summed collection time (ms) and count over all collectors. */
  def gcTotals(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum)
  }

  /** CPU time of all of this JVM's threads, in nanoseconds. */
  def processCpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq

  def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset, in MiB. */
  def heapPeakMb(): Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
