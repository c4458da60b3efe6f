package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class StatsSpec extends AnyFunSuite {

  test("normal quantile hits known values") {
    assert(math.abs(Stats.normalQuantile(0.5)) < 1e-9)
    assert(math.abs(Stats.normalQuantile(0.975) - 1.959963985) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.95) - 1.644853627) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.05) + 1.644853627) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.99) - 2.326347874) < 1e-6)
  }

  test("normal quantile is symmetric and monotone") {
    val rnd = new Random(41)
    (0 until 200).foreach { _ =>
      val p = 0.001 + rnd.nextDouble() * 0.998
      assert(math.abs(Stats.normalQuantile(p) + Stats.normalQuantile(1 - p)) < 1e-7)
    }
    val ps = (1 to 99).map(_ / 100.0)
    val qs = ps.map(Stats.normalQuantile)
    assert(qs.zip(qs.tail).forall { case (a, b) => a < b })
  }

  test("quantile inverts the CDF") {
    for (p <- Seq(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99))
      assert(math.abs(Stats.normalCdf(Stats.normalQuantile(p)) - p) < 1e-5)
  }

  test("quantile rejects out-of-range arguments") {
    intercept[IllegalArgumentException](Stats.normalQuantile(0.0))
    intercept[IllegalArgumentException](Stats.normalQuantile(1.0))
  }

  test("zFor reads the two-sided confidence quantile") {
    assert(math.abs(Stats.zFor(0.025) - 1.959963985) < 1e-6)
    assert(math.abs(Stats.zFor(0.05) - 1.644853627) < 1e-6)
  }
}

/** The Sec. 7.2 sample acceptance criterion (Inequality 2), as applied by
  * `F1Adjusted.gFromPairWeight`: a DC with w violating pairs among the
  * sample's m ordered pairs is accepted when g' = p̂ + z·sqrt(p̂(1−p̂)/m) ≤ ε,
  * that is when p̂ ≤ ε − z·sqrt(p̂(1−p̂)/m).
  */
class SamplerSpec extends AnyFunSuite {

  /** f1' on a sample of `nTuples` tuples, m = nTuples(nTuples − 1). */
  private def f1adj(nTuples: Int, alpha: Double = 0.05): F1Adjusted =
    new F1Adjusted(Evidence(0, Array.empty, Array.empty, nTuples, None), alpha)

  test("sample threshold equals epsilon minus the confidence correction") {
    val eps = 0.01
    val n = 101 // m = 10,100 pairs
    val m = n.toLong * (n - 1)
    val w = 50L
    val pHat = w.toDouble / m
    val correction = f1adj(n).gFromPairWeight(w) - pHat
    val z = Stats.zFor(0.05)
    assert(math.abs(correction - z * math.sqrt(pHat * (1 - pHat) / m)) < 1e-12)
    val thr = eps - correction
    assert(thr < eps)
    assert((f1adj(n).gFromPairWeight(w) <= eps) == (pHat <= thr))
  }

  test("threshold approaches epsilon as the sample grows (Sec. 7.2)") {
    // f1' at p̂ ≈ 0.004 converges to f1 = p̂ as m grows from ~1e3 to ~1e7.
    val gaps = Seq(32, 101, 317, 3163).map { n =>
      val m = n.toLong * (n - 1)
      val w = math.round(0.004 * m)
      val ev = Evidence(0, Array.empty, Array.empty, n, None)
      new F1Adjusted(ev, 0.05).gFromPairWeight(w) - new F1(ev).gFromPairWeight(w)
    }
    assert(gaps.forall(_ > 0.0))
    assert(gaps.zip(gaps.tail).forall { case (a, b) => a > b })
    // The sample threshold ε − gap approaches ε.
    assert(gaps.last < 1e-3)
  }

  test("accept agrees with the inequality-2 criterion") {
    val eps = 0.01
    val n = 224 // m = 49,952 pairs
    val m = n.toLong * (n - 1)
    def accept(pHat: Double, alpha: Double): Boolean =
      f1adj(n, alpha).gFromPairWeight(math.round(pHat * m)) <= eps
    assert(accept(0.001, 0.05))
    assert(!accept(0.05, 0.05))
    // Inequality 2: (1 − p̂) ≥ z·sqrt(p̂(1 − p̂)/m) + (1 − ε).
    val z = Stats.zFor(0.05)
    (0L to 1000L by 10L).foreach { w =>
      val pHat = w.toDouble / m
      val ineq2 = (1 - pHat) >= z * math.sqrt(pHat * (1 - pHat) / m) + (1 - eps)
      assert((f1adj(n).gFromPairWeight(w) <= eps) == ineq2, s"w=$w")
    }
    // A stricter confidence (smaller alpha) raises g' and rejects more.
    val w = math.round(0.0095 * m)
    assert(f1adj(n, 0.001).gFromPairWeight(w) > f1adj(n, 0.4).gFromPairWeight(w))
    assert(accept(0.0095, 0.4))
    assert(!accept(0.0095, 0.001))
  }

  test("degenerate pair counts do not blow up") {
    // 0 or 1 sampled tuples leave m = 0 ordered pairs.
    for (n <- Seq(0, 1); w <- Seq(0L, 1L)) {
      val g = f1adj(n).gFromPairWeight(w)
      assert(!g.isNaN && !g.isInfinite, s"n=$n w=$w")
    }
  }
}
