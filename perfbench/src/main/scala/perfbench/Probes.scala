package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core.ApproxFunction
import scala.collection.mutable

/** A closed interval of driver time around one call into a layer. `parent`
  * is the index of the enclosing span, or -1 for a root.
  */
final case class Span(name: String, parent: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Records spans around layer calls made from the benchmark, and tags the
  * Spark jobs each call submits with the call's name (a local property the
  * [[LayerListener]] reads back).
  */
final class Tracer(sc: SparkContext) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var open = -1

  def span[A](name: String)(body: => A): A = {
    val idx = spans.length
    val parent = open
    spans += Span(name, parent, System.nanoTime(), 0L)
    val outerLayer = sc.getLocalProperty(LayerListener.Key)
    sc.setLocalProperty(LayerListener.Key, name)
    open = idx
    try body
    finally {
      spans(idx) = spans(idx).copy(endNs = System.nanoTime())
      open = parent
      sc.setLocalProperty(LayerListener.Key, outerLayer)
    }
  }

  /** Adds a span of known length that was measured piecewise inside `parent`
    * (e.g. the summed time of many short calls); it counts as a child for
    * the parent's self time.
    */
  def aggregate(name: String, parent: String, ns: Long): Unit = {
    val p = spans.lastIndexWhere(_.name == parent)
    require(p >= 0, s"no span named $parent")
    spans += Span(name, p, spans(p).startNs, spans(p).startNs + ns)
  }

  def ms(name: String): Double = spans.find(_.name == name).map(_.ms).getOrElse(0.0)

  /** Span time minus the time of its direct children. */
  def selfMs(name: String): Double = {
    val i = spans.indexWhere(_.name == name)
    if (i < 0) 0.0
    else spans(i).ms - spans.iterator.filter(_.parent == i).map(_.ms).sum
  }
}

/** Per-layer Spark totals, attributed through the [[LayerListener.Key]]
  * local property of the job that ran the work.
  */
final class SparkTotals {
  var jobs = 0
  var tasks = 0
  var taskMs = 0L
  var shuffleWriteBytes = 0L
  /** Task run times of each stage, for the skew of the heaviest stage. */
  val stageTaskMs = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]

  /** Longest task over the median task in the stage with most task time. */
  def taskSkew: Double =
    if (stageTaskMs.isEmpty) 0.0
    else {
      val ts = stageTaskMs.values.maxBy(_.sum).sorted
      val median = ts(ts.length / 2)
      ts.last.toDouble / math.max(1L, median)
    }
}

/** Listens on the shared listener bus and sums jobs, tasks, executor run
  * time and shuffle writes per layer. Events arrive asynchronously; call
  * [[drain]] before reading [[totals]].
  */
final class LayerListener extends SparkListener {
  private val stageLayer = mutable.HashMap.empty[Int, String]
  private val byLayer = mutable.HashMap.empty[String, SparkTotals]
  private var markerJob = -1
  private var markerSeen = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(LayerListener.Key))) match {
      case Some(LayerListener.Marker) => markerJob = e.jobId
      case Some(l) =>
        byLayer.getOrElseUpdate(l, new SparkTotals).jobs += 1
        e.stageIds.foreach(stageLayer(_) = l)
      case None =>
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob) { markerSeen = true; notifyAll() }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (l <- stageLayer.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = byLayer(l)
      t.tasks += 1
      t.taskMs += m.executorRunTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty[Long]) += m.executorRunTime
    }
  }

  /** Runs a one-task marker job and waits until its end event is delivered;
    * the bus delivers in order, so every earlier event has been seen.
    */
  def drain(sc: SparkContext): Unit = {
    synchronized { markerJob = -1; markerSeen = false }
    sc.setLocalProperty(LayerListener.Key, LayerListener.Marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(LayerListener.Key, null)
    synchronized {
      val deadline = System.currentTimeMillis() + 60000L
      while (!markerSeen && System.currentTimeMillis() < deadline) wait(100L)
      require(markerSeen, "Spark listener bus did not drain within 60 s")
    }
  }

  def totals(layer: String): SparkTotals = synchronized {
    byLayer.getOrElse(layer, new SparkTotals)
  }
}

object LayerListener {
  val Key = "perfbench.layer"
  val Marker = "perfbench.drain-marker"
}

/** Counting and timing delegate: forwards every call to `inner` and records
  * how often `g` and `gFromPairWeight` run, their summed time, and how many
  * evidence classes the set-based `g` walks.
  */
final class CountingFn(inner: ApproxFunction) extends ApproxFunction {
  val name: String = inner.name
  var gCalls = 0L
  var gPairCalls = 0L
  var gNs = 0L
  var classesWalked = 0L

  override def pairBased: Boolean = inner.pairBased

  override def gFromPairWeight(w: Long): Double = {
    val t0 = System.nanoTime()
    val r = inner.gFromPairWeight(w)
    gNs += System.nanoTime() - t0
    gPairCalls += 1
    r
  }

  def g(viol: Iterator[Int]): Double = {
    val t0 = System.nanoTime()
    val r = inner.g(viol.map { c => classesWalked += 1; c })
    gNs += System.nanoTime() - t0
    gCalls += 1
    r
  }
}
