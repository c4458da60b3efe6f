package perfbench

import repro.core._

/** Output checks that do not go through the enumerator. */
object Checks {

  /** Every mined hitting set must be an approximate hitting set (g ≤ ε)
    * whose one-smaller subsets all fail (g > ε), with g recomputed from the
    * evidence classes each set leaves unhit; and the DCs must be exactly
    * the canonical forms of those sets. Returns at most five messages.
    */
  def minimalApproxHittingSets(r: MinerResult, cfg: MinerConfig): Seq[String] = {
    val ev = r.evidence
    val fn = ApproxFunction(cfg.fName, ev, cfg.epsilon, cfg.alpha)
    def g(hs: Set[Int]): Double = {
      val m = new Array[Long](Bits.words(ev.nPreds))
      hs.foreach(Bits.set(m, _))
      fn.g((0 until ev.nClasses).iterator.filter(c => !Bits.intersects(ev.masks(c), m)))
    }
    val named = (hs: Set[Int]) => r.space.dcFromHittingSet(hs).pretty(r.space.colNames)
    val notApprox = r.hittingSets.iterator.filter(hs => g(hs) > cfg.epsilon)
      .map(hs => s"${named(hs)} has g > ε = ${cfg.epsilon}")
    val notMinimal = r.hittingSets.iterator.filter(hs => hs.exists(e => g(hs - e) <= cfg.epsilon))
      .map(hs => s"${named(hs)} is not minimal")
    val canon = DenialConstraint.distinctCanonical(r.hittingSets.map(r.space.dcFromHittingSet))
    val dcSet = if (canon == r.dcs) Iterator.empty
      else Iterator(s"DC set differs from the canonical forms of the hitting sets")
    (notApprox ++ notMinimal ++ dcSet).take(5).toSeq
  }
}
