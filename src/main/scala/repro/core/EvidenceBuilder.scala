package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One comparison shared by all predicates over an operand pair: a single
  * three-way compare of (colA from sideA, colB from sideB) decides every
  * operator bit in `predIdx`/`ops` at once.
  */
final case class EvalGroup(
    colA: Int, sideA: Int,
    colB: Int, sideB: Int,
    opIds: Array[Int],
    predIdx: Array[Int],
) extends Serializable {
  def isSameTuple: Boolean = sideA == sideB
}

/** Distributed evidence-set construction (Sec. 4.2, component 3).
  *
  * This is the reproduction's stand-in for DCFinder's [37] evidence builder:
  * the pair-quadratic scan is parallelised over row ranges (RDD
  * mapPartitions against the broadcast columnar relation), comparisons are
  * shared per attribute pair, single-tuple predicate bits are precomputed
  * once per tuple, and per-partition hash aggregation plus a `reduceByKey`
  * produce the distinct-mask bag and, in the same job, the optional `vios`.
  */
object EvidenceBuilder {

  /** Derive the shared-comparison groups of a predicate space. */
  def evalGroups(space: PredicateSpace): Array[EvalGroup] =
    space.groupMembers.map { members =>
      val p0 = space.predicates(members(0))
      EvalGroup(
        p0.a.col, p0.a.side, p0.b.col, p0.b.side,
        members.map(i => space.predicates(i).op.id),
        members)
    }

  /** Bits of the single-tuple groups on the given side, per tuple. */
  private def baseMasks(
      rel: EncodedRelation,
      groups: Array[EvalGroup],
      side: Int,
      nWords: Int): Array[Array[Long]] = {
    val same = groups.filter(g => g.isSameTuple && g.sideA == side)
    Array.tabulate(rel.n) { i =>
      val m = new Array[Long](nWords)
      var gi = 0
      while (gi < same.length) {
        val g = same(gi)
        val c = rel.cmp(g.colA, i, g.colB, i)
        var k = 0
        while (k < g.opIds.length) {
          if (Op.byId(g.opIds(k)).evalCmp(c)) Bits.set(m, g.predIdx(k))
          k += 1
        }
        gi += 1
      }
      m
    }
  }

  /** Build Evi(D) for the encoded relation in one distributed pair scan.
    * With `needVios`, each class also gets its `vios` list: the pair count
    * of every tuple involved in the class's pairs, for f2/f3.
    */
  def build(
      spark: SparkSession,
      rel: EncodedRelation,
      space: PredicateSpace,
      needVios: Boolean = false): Evidence = {
    val n = rel.n
    val nWords = Bits.words(space.size)
    val groups = evalGroups(space)
    val cross = groups.filter(!_.isSameTuple)
    val base0 = baseMasks(rel, groups, 0, nWords)
    val base1 = baseMasks(rel, groups, 1, nWords)

    val sc = spark.sparkContext
    val nSlices = math.max(1, math.min(n, sc.defaultParallelism * 4))
    val bRel = sc.broadcast(rel)
    val bCross = sc.broadcast(cross)
    val bBase0 = sc.broadcast(base0)
    val bBase1 = sc.broadcast(base1)

    val classes: Array[(ArraySeq[Long], (Long, Array[Long]))] = sc
      .parallelize(0 until n, nSlices)
      .mapPartitions { it =>
        val r = bRel.value; val cg = bCross.value
        val b0 = bBase0.value; val b1 = bBase1.value
        val acc = mutable.HashMap.empty[ArraySeq[Long], ClassTally]
        val scratch = new Array[Long](nWords)
        it.foreach { i =>
          val bi = b0(i)
          var j = 0
          while (j < r.n) {
            if (j != i) {
              val bj = b1(j)
              var w = 0
              while (w < scratch.length) { scratch(w) = bi(w) | bj(w); w += 1 }
              var gi = 0
              while (gi < cg.length) {
                val g = cg(gi)
                val ri = if (g.sideA == 0) i else j
                val rj = if (g.sideB == 0) i else j
                val c = r.cmp(g.colA, ri, g.colB, rj)
                var k = 0
                while (k < g.opIds.length) {
                  if (Op.byId(g.opIds(k)).evalCmp(c)) Bits.set(scratch, g.predIdx(k))
                  k += 1
                }
                gi += 1
              }
              val probe = ArraySeq.unsafeWrapArray(scratch)
              val tally = acc.get(probe) match {
                case Some(t) => t
                case None =>
                  val t = new ClassTally(needVios)
                  acc.update(ArraySeq.unsafeWrapArray(scratch.clone()), t)
                  t
              }
              // the ordered pair (i, j) involves both endpoints
              tally.add(i, j)
            }
            j += 1
          }
        }
        acc.iterator.map { case (mask, t) => mask -> (t.pairs, t.packedTuples) }
      }
      .reduceByKey((a, b) => (a._1 + b._1, mergeTuples(a._2, b._2)))
      .collect()

    bRel.destroy(); bCross.destroy(); bBase0.destroy(); bBase1.destroy()
    Evidence(space.size, classes.map(_._1.toArray), classes.map(_._2._1), n,
      if (needVios) Some(classes.map(_._2._2)) else None)
  }

  /** Merge two tuple-sorted `vios` lists, summing the counts of a shared tuple. */
  private def mergeTuples(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = new Array[Long](a.length + b.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length || j < b.length) {
      val ta = if (i < a.length) Evidence.tidOf(a(i)) else Int.MaxValue
      val tb = if (j < b.length) Evidence.tidOf(b(j)) else Int.MaxValue
      if (ta < tb) { out(k) = a(i); i += 1 }
      else if (tb < ta) { out(k) = b(j); j += 1 }
      else { out(k) = Evidence.pack(ta, Evidence.cntOf(a(i)) + Evidence.cntOf(b(j))); i += 1; j += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(out, k)
  }
}

/** Partition-local tally of one evidence class: its pair count and, when
  * `vios` is needed, the pair count of each tuple involved.
  */
private final class ClassTally(withTuples: Boolean) {
  var pairs = 0L
  private val tuples = if (withTuples) mutable.LongMap.empty[Long] else null

  def add(i: Int, j: Int): Unit = {
    pairs += 1L
    if (tuples != null) {
      tuples.update(i, tuples.getOrElse(i, 0L) + 1L)
      tuples.update(j, tuples.getOrElse(j, 0L) + 1L)
    }
  }

  /** The tuple counts as `Evidence.pack` longs, sorted by tuple id. */
  def packedTuples: Array[Long] =
    if (tuples == null) Array.emptyLongArray
    else {
      val packed = tuples.iterator.map { case (t, c) => Evidence.pack(t.toInt, c) }.toArray
      java.util.Arrays.sort(packed)
      packed
    }
}
