package repro.core

import repro.SparkSpec
import repro.data.{AdultData, TaxData}

/** Pins ADCEnum's behaviour on fixed evidence built from generated data: the
  * node count, the number of hitting sets and a hash of the sorted hitting
  * sets, for both the maximal (Sec. 6) and the minimal (Fig. 10) class
  * choice. A change that only makes the enumeration's work cheaper must not
  * move any of them. The pins were recorded with the dancing-links
  * enumerator that preceded the class-bitset state.
  *
  * The evidence classes are put in a canonical order (by mask words) before
  * enumerating, because ties in the class choice go to the lowest class id
  * and the distributed builder's class order depends on partitioning. The
  * half sample is drawn from a single partition, so it does not depend on
  * the number of cores either.
  */
class AdcEnumPinSpec extends SparkSpec {

  private final case class Pin(nodes: Long, hittingSets: Int, hash: String)

  private final case class Case(
      name: String,
      evidence: () => (Evidence, PredicateSpace),
      fName: String,
      epsilon: Double,
      maxSize: Int,
      maxChoice: Pin,
      minChoice: Pin)

  private def evidenceOf(df: org.apache.spark.sql.DataFrame, needVios: Boolean) = {
    val rel = EncodedRelation.fromDataFrame(df)
    val space = PredicateSpace.build(rel, 0.3)
    (canonicalOrder(EvidenceBuilder.build(spark, rel, space, needVios)), space)
  }

  /** The same evidence with its classes sorted by mask words. */
  private def canonicalOrder(ev: Evidence): Evidence = {
    val order = ev.masks.indices.sortWith { (a, b) =>
      val (x, y) = (ev.masks(a), ev.masks(b))
      val w = x.indices.find(i => x(i) != y(i))
      w.exists(i => java.lang.Long.compareUnsigned(x(i), y(i)) < 0)
    }.toArray
    ev.copy(masks = order.map(ev.masks), counts = order.map(ev.counts),
      vios = ev.vios.map(v => order.map(v)))
  }

  private def pinOf(ev: Evidence, space: PredicateSpace, c: Case, chooseMax: Boolean): Pin = {
    val fn = ApproxFunction(c.fName, ev, c.epsilon)
    val e = new AdcEnum(ev.masks, ev.counts, ev.nPreds, space.groupOf, fn, c.epsilon,
      chooseMax, c.maxSize)
    val hss = e.enumerate()
    val text = hss.map(_.toSeq.sorted.mkString(",")).sorted.mkString(";")
    val digest = java.security.MessageDigest.getInstance("SHA-256")
      .digest(text.getBytes("UTF-8")).map("%02x".format(_)).mkString
    Pin(e.nodes, hss.size, digest.take(16))
  }

  private lazy val taxHalf400 =
    evidenceOf(Sampler.sample(TaxData.generate(spark, 400).coalesce(1), 0.5, 11L), needVios = true)

  private val cases = Seq(
    Case("Adult 40 rows, f1, eps 1e-4, cap 3",
      () => evidenceOf(AdultData.generate(spark, 40), needVios = false), "f1", 1e-4, 3,
      maxChoice = Pin(58084L, 5687, "25394a4de9862ce6"),
      minChoice = Pin(27553L, 5687, "25394a4de9862ce6")),
    Case("Tax 200 rows, f1, eps 0.01, cap 3",
      () => evidenceOf(TaxData.generate(spark, 200), needVios = false), "f1", 0.01, 3,
      maxChoice = Pin(118086L, 10096, "2e63c08f15021652"),
      minChoice = Pin(64291L, 10096, "2e63c08f15021652")),
    Case("Tax 400 rows, half sample seed 11, f2, eps 0.1, cap 2",
      () => taxHalf400, "f2", 0.1, 2,
      maxChoice = Pin(5219L, 475, "1558cfbe537c5922"),
      minChoice = Pin(2360L, 475, "1558cfbe537c5922")),
    Case("Tax 400 rows, half sample seed 11, f3, eps 0.1, cap 2",
      () => taxHalf400, "f3", 0.1, 2,
      maxChoice = Pin(4563L, 250, "00f566dee03c1bfc"),
      minChoice = Pin(3432L, 250, "00f566dee03c1bfc")),
  )

  cases.foreach { c =>
    test(s"pinned enumeration: ${c.name}") {
      val (ev, space) = c.evidence()
      val got = (pinOf(ev, space, c, chooseMax = true), pinOf(ev, space, c, chooseMax = false))
      assert(got == ((c.maxChoice, c.minChoice)), "(max-intersection choice, min-intersection choice)")
    }
  }
}
