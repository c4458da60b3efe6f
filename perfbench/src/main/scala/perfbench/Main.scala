package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

final case class Opts(
    workload: String,
    seed: Long = 42L,
    dataSeed: Long = Workloads.DataSeed,
    seconds: Double = 10.0,
    trace: Boolean = false,
    rows: Option[Int] = None,
    warmups: Int = 3,
    minTimed: Int = 4,
    workDir: String = ".bench_build/perfbench",
    commit: String = "unknown",
)

/** What the output gate compares between runs: the DC count, a SHA-256 of
  * the sorted canonical DC strings, and the enumeration node count.
  */
final case class Outcome(dcs: Int, sha256: String, nodes: Long) {
  def sameDcs(o: Outcome): Boolean = dcs == o.dcs && sha256 == o.sha256
}

object Outcome {
  def of(dcs: Seq[DenialConstraint], space: PredicateSpace, nodes: Long): Outcome = {
    val lines = dcs.map(_.canonical.pretty(space.colNames)).sorted
    val md = MessageDigest.getInstance("SHA-256")
      .digest(lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
    Outcome(lines.size, md.map(b => f"${b & 0xff}%02x").mkString, nodes)
  }
}

/** Runs one workload in this JVM: untraced timed `AdcMiner.mine` calls for
  * the end-to-end metrics, or, with `trace`, additionally one staged run
  * that calls the pipeline's layers one by one for the per-layer metrics.
  * The result goes to stdout as one line prefixed with [[Main.ResultPrefix]].
  */
object Main {
  val ResultPrefix = "PERFBENCH_RESULT "

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Opts(workload = ""))
    require(o.workload.nonEmpty, "--workload is required")
    val spark = session(o.workDir)
    try println(ResultPrefix + Json.write(run(spark, o)))
    finally spark.stop()
  }

  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil                         => o
    case "--workload" :: v :: rest   => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, o.copy(seed = v.toLong))
    case "--data-seed" :: v :: rest  => parse(rest, o.copy(dataSeed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest      => parse(rest, o.copy(trace = v == "1"))
    case "--work-dir" :: v :: rest   => parse(rest, o.copy(workDir = v))
    case "--commit" :: v :: rest     => parse(rest, o.copy(commit = v))
    case other :: _                  => throw new IllegalArgumentException(s"unknown argument: $other")
  }

  /** One local session with the settings of the repository's tests and
    * jobs: at most 4 cores, 64 shuffle partitions, broadcast joins off.
    */
  def session(workDir: String): SparkSession = {
    val cores = math.min(Runtime.getRuntime.availableProcessors, 4)
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def log(msg: String): Unit = println(s"[perfbench] $msg")

  def run(spark: SparkSession, o: Opts): mutable.LinkedHashMap[String, Any] = {
    val w = Workloads.byName(o.workload, o.seed)
    val rows = o.rows.getOrElse(w.rows)
    val cfg = w.cfg
    val sc = spark.sparkContext
    val env = mutable.LinkedHashMap[String, Any](
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "xmx_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")),
      "spark_version" -> spark.version,
      "spark_master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "git_commit" -> o.commit,
      "data_seed" -> o.dataSeed,
      "seed" -> o.seed,
      "rows" -> rows,
    )
    def uptime = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    log(f"session ready at $uptime%.3f s")
    // The relation's content comes from the data seed; the run's seed
    // shuffles its row order and seeds the sample.
    val shuffled = new scala.util.Random(o.seed).shuffle(w.dataset.rows(rows, o.dataSeed))
    val df = spark.createDataFrame(shuffled.asJava, w.dataset.schema)
    log(f"data generated at $uptime%.3f s")
    val errors = mutable.ArrayBuffer.empty[String]

    def mineOnce(): (MinerResult, Outcome) = {
      val r = AdcMiner.mine(spark, df, cfg)
      (r, Outcome.of(r.dcs, r.space, r.enumNodes))
    }

    // Warm-up mines; the first one's result is the reference every later
    // mine must match.
    val (refResult, ref) = mineOnce()
    log(f"first mine done at $uptime%.3f s")
    (1 until o.warmups).foreach(_ => mineOnce())
    val setupS = uptime
    log(f"${w.name}: rows=$rows sample_rows=${refResult.sampleRows} dcs=${ref.dcs} nodes=${ref.nodes} " +
      f"sha256=${ref.sha256} setup=$setupS%.3f s")

    // Timed, untraced runs: closed loop, one mine at a time.
    val mineS = mutable.ArrayBuffer.empty[Double]
    val peakMb = mutable.ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0
    // At least `minTimed` mines, so that a slower machine does not shrink
    // the sample the median is taken over.
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    while (attempted < o.minTimed || System.nanoTime() < deadline) {
      System.gc()
      Measure.resetHeapPeaks()
      attempted += 1
      val t0 = System.nanoTime()
      val cpu0 = Measure.processCpuNs()
      try {
        val (res, out) = mineOnce()
        val s = (System.nanoTime() - t0) / 1e9
        val cpuS = (Measure.processCpuNs() - cpu0) / 1e9
        mineS += s
        peakMb += Measure.heapPeakMb()
        if (!out.sameDcs(ref) || out.nodes != ref.nodes) {
          failed += 1
          errors += s"timed run $attempted returned $out, expected $ref"
        }
        log(f"timed run $attempted: mine_s=$s%.3f cpu_s=$cpuS%.3f (space ${res.spaceMs} ms, evidence ${res.evidenceMs} ms, " +
          f"enumeration ${res.enumMs} ms) nodes=${out.nodes}")
      } catch {
        case e: Exception =>
          failed += 1
          errors += s"timed run $attempted threw $e"
      }
    }

    // Soundness of the reference: every DC meets ε and is minimal, checked
    // directly against the evidence rather than through ADCEnum.
    val unsound = Checks.minimalApproxHittingSets(refResult, cfg)
    if (unsound.nonEmpty) { errors ++= unsound; failed = attempted }

    val metrics = mutable.LinkedHashMap.empty[String, Any]
    val mineMedian = Measure.median(mineS.toSeq)
    if (!o.trace) {
      metrics("mine_s") = Measure.metric(mineMedian, "s")
      metrics("setup_s") = Measure.metric(setupS, "s")
    } else {
      // The heap high-water mark varies by more than a tenth between runs,
      // so it is reported with the layer metrics only.
      metrics("jvm.peak_heap_mb") = Measure.metric(Measure.median(peakMb.toSeq), "MB")
    }
    log(f"mine_s=$mineMedian%.3f s (median of ${mineS.size}) setup_s=$setupS%.3f s " +
      f"peak_heap_mb=${Measure.median(peakMb.toSeq)}%.1f MB")

    val spans =
      if (!o.trace) Seq.empty
      else {
        attempted += 1
        val (tracer, staged) = Staged.run(spark, df, cfg)
        metrics ++= staged.metrics
        val tracedMs = tracer.ms(Staged.Root)
        metrics("trace.total_ms") = Measure.metric(tracedMs, "ms")
        metrics("trace.overhead_ms") = Measure.metric(tracedMs - mineMedian * 1000.0, "ms")
        if (!staged.outcome.sameDcs(ref) || staged.outcome.nodes != ref.nodes) {
          failed += 1
          errors += s"staged traced run returned ${staged.outcome}, AdcMiner.mine returned $ref"
        }
        tracer.spans.toSeq.map(s => mutable.LinkedHashMap[String, Any](
          "name" -> s.name, "parent" -> s.parent, "ms" -> s.ms,
          "self_ms" -> tracer.selfMs(s.name)))
      }

    log(f"failed_run_rate=${failed.toDouble / attempted}%.3f ($failed of $attempted runs)")
    errors.foreach(e => log(s"ERROR $e"))
    mutable.LinkedHashMap[String, Any](
      "workload" -> w.name,
      "env" -> env,
      "attempted" -> attempted,
      "failed" -> failed,
      "dcs" -> ref.dcs,
      "dc_sha256" -> ref.sha256,
      "nodes" -> ref.nodes,
      "errors" -> errors,
      "metrics" -> metrics,
      "spans" -> spans,
    )
  }
}
