package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Naive evidence-set construction — the AFASTDC-style [11] baseline.
  *
  * Evaluates every predicate of the space independently for every ordered
  * tuple pair, with no comparison sharing and no precomputed single-tuple
  * bits. Produces exactly the same [[Evidence]] as [[EvidenceBuilder]]
  * (differential-tested), but substantially slower — it is the "evidence
  * construction without bit-level tricks" comparator for the Fig. 7 shape.
  */
object NaiveEvidenceBuilder {

  def build(
      spark: SparkSession,
      rel: EncodedRelation,
      space: PredicateSpace): Evidence = {
    val n = rel.n
    val nWords = Bits.words(space.size)
    val sc = spark.sparkContext
    val nSlices = math.max(1, math.min(n, sc.defaultParallelism * 4))
    val bRel = sc.broadcast(rel)
    val bPreds = sc.broadcast(space.predicates.toArray)

    val classCounts = sc
      .parallelize(0 until n, nSlices)
      .mapPartitions { it =>
        val r = bRel.value
        val preds = bPreds.value
        val acc = mutable.HashMap.empty[ArraySeq[Long], Long]
        val scratch = new Array[Long](nWords)
        it.foreach { i =>
          var j = 0
          while (j < r.n) {
            if (j != i) {
              java.util.Arrays.fill(scratch, 0L)
              var p = 0
              while (p < preds.length) {
                if (r.eval(preds(p), i, j)) Bits.set(scratch, p)
                p += 1
              }
              val probe = ArraySeq.unsafeWrapArray(scratch)
              acc.get(probe) match {
                case Some(cnt) => acc.update(probe, cnt + 1L)
                case None => acc.update(ArraySeq.unsafeWrapArray(scratch.clone()), 1L)
              }
            }
            j += 1
          }
        }
        acc.iterator
      }
      .reduceByKey(_ + _)
      .collect()

    bRel.destroy(); bPreds.destroy()
    Evidence(space.size, classCounts.map(_._1.toArray), classCounts.map(_._2), n, None)
  }
}
