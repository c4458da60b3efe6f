package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import scala.collection.mutable

final case class StagedResult(outcome: Outcome, metrics: mutable.LinkedHashMap[String, Any])

/** The traced run: calls the pipeline's public functions one by one, in the
  * order `AdcMiner.mine` calls them, with a span around each call, a
  * [[LayerListener]] attributing Spark work to the open call, and a
  * [[CountingFn]] in place of the approximation function.
  */
object Staged {
  val Root = "AdcMiner.mine"
  private val Space = "PredicateSpace.build"
  private val Sample = "Sampler.sample"
  private val Encode = "EncodedRelation.fromDataFrame"
  private val Evidence = "EvidenceBuilder.build"
  private val NoVios = "EvidenceBuilder.build(needVios=false)"
  private val Enum = "AdcEnum.enumerate"
  private val G = "ApproxFunction.g"
  private val Canon = "DenialConstraint.distinctCanonical"

  def run(spark: SparkSession, df: DataFrame, cfg: MinerConfig): (Tracer, StagedResult) = {
    require(!cfg.naiveEvidence && !cfg.searchMc, "the traced run mirrors the default pipeline only")
    val sc = spark.sparkContext
    val listener = new LayerListener
    sc.addSparkListener(listener)
    val tracer = new Tracer(sc)
    val needVios = ApproxFunction.needsVios(cfg.fName)
    val (gcMs0, gcCount0) = Measure.gcTotals()
    try {
      val (space, rel, ev, fn, nodes, hss, dcs) = tracer.span(Root) {
        val space = tracer.span(Space)(PredicateSpace.build(df, cfg.overlapThreshold))
        val sampled = tracer.span(Sample)(Sampler.sample(df, cfg.sampleFraction, cfg.seed))
        val rel = tracer.span(Encode)(EncodedRelation.fromDataFrame(sampled))
        val ev = tracer.span(Evidence)(EvidenceBuilder.build(spark, rel, space, needVios))
        val (fn, nodes, hss) = tracer.span(Enum) {
          val fn = new CountingFn(ApproxFunction(cfg.fName, ev, cfg.epsilon, cfg.alpha))
          val e = new AdcEnum(ev.masks, ev.counts, ev.nPreds, space.groupOf, fn, cfg.epsilon,
            cfg.chooseMaxIntersection, cfg.maxDcSize)
          val hss = e.enumerate()
          (fn, e.nodes, hss)
        }
        tracer.aggregate(G, Enum, fn.gNs)
        val dcs = tracer.span(Canon)(DenialConstraint.distinctCanonical(hss.map(space.dcFromHittingSet)))
        (space, rel, ev, fn, nodes, hss, dcs)
      }
      val (gcMs1, gcCount1) = Measure.gcTotals()
      // The vios pass is measured as the difference to an extra build
      // without it; this call is not part of the traced pipeline.
      if (needVios) tracer.span(NoVios)(EvidenceBuilder.build(spark, rel, space, needVios = false))
      listener.drain(sc)

      val m = mutable.LinkedHashMap.empty[String, Any]
      def put(name: String, value: Double, unit: String): Unit = m(name) = Measure.metric(value, unit)
      def layer(name: String, spark: Boolean): Unit = {
        put(s"$name.ms", tracer.ms(name), "ms")
        put(s"$name.self_ms", tracer.selfMs(name), "ms")
        if (spark) {
          val t = listener.totals(name)
          put(s"$name.spark_jobs", t.jobs, "count")
          put(s"$name.spark_tasks", t.tasks, "count")
          put(s"$name.task_ms", t.taskMs, "ms")
          put(s"$name.shuffle_mb", t.shuffleWriteBytes / 1048576.0, "MB")
        }
      }
      put(s"$Root.self_ms", tracer.selfMs(Root), "ms")

      layer(Space, spark = true)
      put("PredicateSpace.preds", space.size, "count")
      put("PredicateSpace.groups", space.groupMembers.length, "count")

      layer(Sample, spark = false)
      layer(Encode, spark = true)
      put("Sampler.sample_rows", rel.n, "count")

      layer(Evidence, spark = true)
      val pairs = ev.totalPairs
      val words = Bits.words(ev.nPreds)
      val viosEntries = ev.vios.map(_.iterator.map(_.length.toLong).sum).getOrElse(0L)
      val evidenceBytes =
        ev.nClasses * (16L + 8L * words) + 8L * ev.nClasses +
          ev.vios.map(_ => 16L * ev.nClasses + 8L * viosEntries).getOrElse(0L)
      put(s"$Evidence.ns_per_pair", tracer.ms(Evidence) * 1e6 / math.max(1L, pairs), "ns/pair")
      put(s"$Evidence.task_skew", listener.totals(Evidence).taskSkew, "ratio")
      put("EvidenceBuilder.pairs", pairs, "count")
      put("EvidenceBuilder.classes", ev.nClasses, "count")
      put("EvidenceBuilder.evidence_mb", evidenceBytes / 1048576.0, "MB")
      put("EvidenceBuilder.vios_ms", if (needVios) tracer.ms(Evidence) - tracer.ms(NoVios) else 0.0, "ms")
      put("EvidenceBuilder.vios_entries", viosEntries, "count")

      layer(Enum, spark = false)
      put("AdcEnum.nodes", nodes, "count")
      put("AdcEnum.us_per_node", tracer.ms(Enum) * 1e3 / math.max(1L, nodes), "us/node")
      put("AdcEnum.hitting_sets", hss.size, "count")
      put("ApproxFunction.g_ms", fn.gNs / 1e6, "ms")
      put("ApproxFunction.g_calls", fn.gCalls, "count")
      put("ApproxFunction.g_pair_calls", fn.gPairCalls, "count")
      put("ApproxFunction.classes_per_g",
        fn.classesWalked.toDouble / math.max(1L, fn.gCalls), "classes/call")

      layer(Canon, spark = false)
      put("DenialConstraint.dcs", dcs.size, "count")

      put("jvm.gc_ms", gcMs1 - gcMs0, "ms")
      put("jvm.gc_count", gcCount1 - gcCount0, "count")

      (tracer, StagedResult(Outcome.of(dcs, space, nodes), m))
    } finally sc.removeSparkListener(listener)
  }
}
