package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** ADCEnum against SearchMC on instances whose class bitsets and predicate
  * masks span several 64-bit words: class counts on both sides of the 64-
  * and 128-bit boundaries, and 65–130 predicates (2–3 mask words).
  */
class AdcEnumWordBoundarySpec extends AnyFunSuite {
  import EnumTestKit._

  private val classCounts = Seq(63, 64, 65, 127, 128, 129, 200)

  /** `n` distinct random predicate sets, each predicate present with
    * probability `density`.
    */
  private def distinctClasses(rnd: Random, n: Int, nPreds: Int, density: Double): Vector[Set[Int]] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[Set[Int]]
    while (out.size < n) {
      val s = (0 until nPreds).filter(_ => rnd.nextDouble() < density).toSet
      if (s.nonEmpty) out += s
    }
    out.toVector
  }

  /** Evidence with exactly `nClasses` classes and a `vios` structure: every
    * ordered pair of the smallest relation with enough pairs gets one class,
    * each class at least once.
    */
  private def pairEvidence(rnd: Random, nClasses: Int, nPreds: Int, density: Double): Evidence = {
    val n = Iterator.from(2).find(k => k * (k - 1) >= nClasses).get
    val classes = distinctClasses(rnd, nClasses, nPreds, density)
    val pairs = for (i <- 0 until n; j <- 0 until n if i != j) yield (i, j)
    val sats = rnd.shuffle(pairs).zipWithIndex.map { case (p, k) =>
      p -> (if (k < nClasses) classes(k) else classes(rnd.nextInt(nClasses)))
    }
    val ev = evidenceFromPairs(nPreds, n, sats)
    assert(ev.nClasses == nClasses)
    ev
  }

  private def check(ev: Evidence, groups: Array[Int], fName: String, eps: Double, cap: Int,
                    clue: String): Vector[Set[Int]] = {
    val fn = ApproxFunction(fName, ev, eps)
    val a = new AdcEnum(ev.masks, ev.counts, ev.nPreds, groups, fn, eps, maxSize = cap)
      .enumerate()
    val b = new SearchMC(ev.masks, ev.counts, ev.nPreds, groups, fn, eps, cap).enumerate()
    assert(a.size == a.toSet.size, s"$clue: duplicates")
    assert(a.toSet == b.toSet, s"$clue: ADCEnum and SearchMC disagree")
    a
  }

  private def groupsFor(rnd: Random, nPreds: Int): Array[Int] =
    if (rnd.nextBoolean()) soloGroups(nPreds) else Array.tabulate(nPreds)(_ / 3)

  test("f1: agrees with SearchMC across class and predicate word boundaries") {
    val rnd = new Random(61)
    val found = classCounts.flatMap { nClasses =>
      val nPreds = 65 + rnd.nextInt(66)
      val classes = distinctClasses(rnd, nClasses, nPreds, 0.8 + 0.15 * rnd.nextDouble())
      val ev = mkEvidence(nPreds, classes.map(_ -> (1L + rnd.nextInt(9))), 30)
      val eps = Seq(0.0, 0.01, 0.05)(rnd.nextInt(3))
      val cap = 2 + rnd.nextInt(2)
      check(ev, groupsFor(rnd, nPreds), "f1", eps, cap,
        s"classes=$nClasses preds=$nPreds eps=$eps cap=$cap")
    }
    assert(found.exists(_.exists(_ >= 64)), "no hitting set uses a predicate past the first word")
  }

  Seq("f2", "f3").foreach { fName =>
    test(s"$fName: agrees with SearchMC across class and predicate word boundaries") {
      val rnd = new Random(if (fName == "f2") 62 else 63)
      val found = classCounts.flatMap { nClasses =>
        val nPreds = 65 + rnd.nextInt(66)
        val ev = pairEvidence(rnd, nClasses, nPreds, 0.8 + 0.15 * rnd.nextDouble())
        val eps = Seq(0.0, 0.1, 0.2)(rnd.nextInt(3))
        val cap = 2 + rnd.nextInt(2)
        check(ev, groupsFor(rnd, nPreds), fName, eps, cap,
          s"classes=$nClasses preds=$nPreds eps=$eps cap=$cap")
      }
      assert(found.exists(_.exists(_ >= 64)), "no hitting set uses a predicate past the first word")
    }
  }
}
