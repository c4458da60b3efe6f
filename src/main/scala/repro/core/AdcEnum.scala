package repro.core

import scala.collection.mutable.ArrayBuffer

/** ADCEnum (Figs. 4/5): enumeration of all minimal approximate hitting sets
  * of the evidence set w.r.t. a valid approximation function f and threshold
  * ε — equivalently, of all nontrivial minimal ADCs.
  *
  * Extends MMCS with:
  *  - the approximate base case (g(S) ≤ ε) plus the explicit IsMinimal check;
  *  - a second "do not hit F" recursive branch, guarded by the canHit marks
  *    (UpdateCanCover) and the WillCover feasibility prune;
  *  - removal of same-group predicates from the candidate list after adding
  *    a predicate (RemoveRedundantPreds), which also guarantees nontrivial
  *    output DCs;
  *  - selection of the uncovered class with the *maximal* candidate
  *    intersection (Sec. 6; `chooseMaxIntersection = false` reverts to
  *    Murakami–Uno's minimal choice for the Fig. 10 experiment).
  *
  * All state is mutable with exact undo, kept "vertically" as bitsets over
  * evidence classes (the layout of Hydra and DCFinder): `cls(p)` marks the
  * classes containing predicate p, and `uncov`, `canHit` and every `crit[e]`
  * are class bitsets; `uncov` and `crit[e]` cache their pair weights, and
  * `crit[e]` its cardinality. UpdateCritUncov is then three loops over
  * ⌈nClasses/64⌉ words; the words it strips go into undo buffers
  * preallocated per depth and are OR-ed back on undo. Classes are visited in
  * ascending id, so ties in the class choice go to the lowest id. The
  * candidate list is a predicate bitmask. One instance runs one enumeration;
  * results are hitting sets over predicate indices.
  */
final class AdcEnum(
    masks: Array[Array[Long]],
    counts: Array[Long],
    nPreds: Int,
    groupOf: Array[Int],
    fn: ApproxFunction,
    epsilon: Double,
    chooseMaxIntersection: Boolean = true,
    maxSize: Int = Int.MaxValue,
) {

  def this(ev: Evidence, space: PredicateSpace, fn: ApproxFunction, epsilon: Double) =
    this(ev.masks, ev.counts, ev.nPreds, space.groupOf, fn, epsilon)

  private val nClasses = masks.length
  private val nWords = Bits.words(math.max(1, nPreds))
  private val cWords = Bits.words(nClasses)
  private val groupMask: Array[Array[Long]] = {
    val nGroups = if (groupOf.isEmpty) 0 else groupOf.max + 1
    val m = Array.fill(nGroups)(new Array[Long](nWords))
    (0 until nPreds).foreach(p => Bits.set(m(groupOf(p)), p))
    m
  }
  /** cls(p): the classes containing predicate p. */
  private val cls: Array[Array[Long]] = {
    val m = Array.fill(nPreds)(new Array[Long](cWords))
    (0 until nClasses).foreach(c => Bits.iterator(masks(c)).foreach(p => Bits.set(m(p), c)))
    m
  }

  // ---- mutable search state -------------------------------------------------
  private val uncov = new Array[Long](cWords)
  private var uncovWeight = 0L
  private val canHit = new Array[Long](cWords)
  private val candMask = new Array[Long](nWords)
  private val s = ArrayBuffer.empty[Int] // current hitting set
  private val crit = Array.fill(nPreds)(new Array[Long](cWords))
  private val critWeight = new Array[Long](nPreds)
  private val critCard = new Array[Int](nPreds)
  private val scratch = new Array[Long](cWords)
  // Undo buffers: the canHit bits UpdateCanCover cleared, by recursion depth;
  // the crit[u] bits UpdateCritUncov stripped, by |S| with one row per u ∈ S.
  private val flippedAt = ArrayBuffer.empty[Array[Long]]
  private val strippedAt = ArrayBuffer.empty[Array[Array[Long]]]

  /** Recursion nodes visited — reported in the experiments. */
  var nodes: Long = 0L

  private def initState(): Unit = {
    java.util.Arrays.fill(uncov, 0L)
    (0 until nClasses).foreach(Bits.set(uncov, _))
    System.arraycopy(uncov, 0, canHit, 0, cWords)
    uncovWeight = counts.sum
    java.util.Arrays.fill(candMask, 0L)
    (0 until nPreds).foreach(Bits.set(candMask, _))
  }

  private def flippedBuffer(depth: Int): Array[Long] = {
    while (flippedAt.length <= depth) flippedAt += new Array[Long](cWords)
    flippedAt(depth)
  }

  private def strippedBuffer(k: Int): Array[Array[Long]] = {
    while (strippedAt.length <= k) strippedAt += Array.fill(strippedAt.length)(new Array[Long](cWords))
    strippedAt(k)
  }

  // ---- approximation-function plumbing -------------------------------------
  private def gCurrent(): Double =
    if (fn.pairBased) fn.gFromPairWeight(uncovWeight) else fn.g(Bits.iterator(uncov))

  /** g of the DC obtained by dropping e from S: violating classes are the
    * current uncov plus the classes for which e is critical.
    */
  private def gWithout(e: Int): Double =
    if (fn.pairBased) fn.gFromPairWeight(uncovWeight + critWeight(e))
    else {
      System.arraycopy(uncov, 0, scratch, 0, cWords)
      Bits.or(scratch, crit(e))
      fn.g(Bits.iterator(scratch))
    }

  /** WillCover (Fig. 5): g of S ∪ cand. After UpdateCanCover, a class is
    * unreachable by any candidate exactly when canHit is false.
    */
  private def gWillCover(): Double = {
    System.arraycopy(uncov, 0, scratch, 0, cWords)
    Bits.andNot(scratch, canHit)
    if (fn.pairBased) fn.gFromPairWeight(Bits.weight(scratch, counts))
    else fn.g(Bits.iterator(scratch))
  }

  /** IsMinimal (Fig. 5): S minus any single predicate must exceed ε
    * (monotonicity makes single-removal sufficient).
    */
  private def isMinimal(): Boolean = s.forall(e => gWithout(e) > epsilon)

  // ---- subroutines ----------------------------------------------------------
  /** UpdateCritUncov (Fig. 3): crit[e] = uncov ∧ cls(e); uncov ∧= ¬cls(e);
    * crit[u] ∧= ¬cls(e) for every u ∈ S, saving the stripped words. Returns
    * |crit[e]|, which undo checks.
    */
  private def updateCritUncov(e: Int): Int = {
    val ce = cls(e)
    val ocrit = crit(e) // empty on entry: e is not in S
    var w = 0
    while (w < cWords) { val m = uncov(w) & ce(w); ocrit(w) = m; uncov(w) ^= m; w += 1 }
    critWeight(e) = Bits.weight(ocrit, counts)
    critCard(e) = Bits.cardinality(ocrit)
    uncovWeight -= critWeight(e)
    val stripped = strippedBuffer(s.length)
    var i = 0
    while (i < s.length) {
      val u = s(i); val cu = crit(u); val row = stripped(i)
      w = 0
      while (w < cWords) { val m = cu(w) & ce(w); row(w) = m; cu(w) ^= m; w += 1 }
      critWeight(u) -= Bits.weight(row, counts)
      critCard(u) -= Bits.cardinality(row)
      i += 1
    }
    critCard(e)
  }

  private def undoCritUncov(e: Int, card: Int): Unit = {
    val stripped = strippedAt(s.length)
    var i = s.length - 1
    while (i >= 0) {
      val u = s(i); val row = stripped(i)
      Bits.or(crit(u), row)
      critWeight(u) += Bits.weight(row, counts)
      critCard(u) += Bits.cardinality(row)
      i -= 1
    }
    require(critCard(e) == card, s"crit[$e] mutated below recursion: ${critCard(e)} vs $card")
    Bits.or(uncov, crit(e))
    uncovWeight += critWeight(e)
    java.util.Arrays.fill(crit(e), 0L)
    critWeight(e) = 0L
    critCard(e) = 0
  }

  /** UpdateCanCover (Fig. 5): mark every still-uncovered class with no
    * remaining candidate predicate as unhittable, recording the cleared bits
    * in `flipped`.
    */
  private def updateCanCover(flipped: Array[Long]): Unit = {
    var w = 0
    while (w < cWords) {
      var word = uncov(w) & canHit(w)
      var f = 0L
      while (word != 0L) {
        val low = word & -word
        val c = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
        if (!Bits.intersects(masks(c), candMask)) f |= low
        word ^= low
      }
      flipped(w) = f
      canHit(w) &= ~f
      w += 1
    }
  }

  /** Choose F ∈ uncov with canHit and a non-empty candidate intersection;
    * maximal (default) or minimal intersection size, first in class order.
    * Returns -1 when no candidate can hit any remaining uncovered class —
    * then no extension of S reduces the violation set, so the branch is
    * exhausted.
    */
  private def chooseClass(): Int = {
    var best = -1
    var bestScore = if (chooseMaxIntersection) 0 else Int.MaxValue
    var w = 0
    while (w < cWords) {
      var word = uncov(w) & canHit(w)
      while (word != 0L) {
        val c = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
        val sc = Bits.popcountAnd(masks(c), candMask)
        if (sc > 0) {
          val better = if (chooseMaxIntersection) sc > bestScore else sc < bestScore
          if (better) { best = c; bestScore = sc }
        }
        word &= word - 1
      }
      w += 1
    }
    best
  }

  // ---- main recursion (Fig. 4) ---------------------------------------------
  private val results = Vector.newBuilder[Set[Int]]

  private def rec(depth: Int): Unit = {
    nodes += 1
    if (gCurrent() <= epsilon) {
      // Base case: S is an approximate hitting set. Monotonicity makes every
      // proper superset non-minimal, so the branch ends here either way.
      if (isMinimal()) results += s.toSet
      return
    }
    if (s.length >= maxSize) return
    val fCls = chooseClass()
    if (fCls == -1) return
    val fCand = Bits.and(masks(fCls), candMask) // cand ∩ F

    // ---- branch 1: do not hit F (lines 7-12) ----
    Bits.andNot(candMask, fCand)
    val flipped = flippedBuffer(depth)
    updateCanCover(flipped)
    if (gWillCover() <= epsilon) rec(depth + 1)
    Bits.or(canHit, flipped)

    // ---- branch 2: hit F (lines 13-22), cand ∩ F in index order ----
    val failed = new Array[Long](nWords)
    val it = Bits.iterator(fCand)
    while (it.hasNext) {
      val e = it.next()
      val card = updateCritUncov(e)
      if (card > 0 && s.forall(critCard(_) > 0)) {
        // RemoveRedundantPreds: same-group predicates would make the DC
        // trivial or redundant (indifference to redundancy).
        val redundant = Bits.and(groupMask(groupOf(e)), candMask)
        Bits.andNot(candMask, redundant)
        s += e
        rec(depth + 1)
        s.remove(s.length - 1)
        Bits.or(candMask, redundant)
        Bits.set(candMask, e)
      } else Bits.set(failed, e)
      undoCritUncov(e, card)
    }
    Bits.or(candMask, failed)
  }

  /** Run the enumeration; returns every minimal approximate hitting set
    * exactly once (Thm. 6.1).
    */
  def enumerate(): Vector[Set[Int]] = {
    nodes = 0L
    initState()
    rec(0)
    results.result()
  }
}
