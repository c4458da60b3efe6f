package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.Datasets
import scala.jdk.CollectionConverters._

/** Differential test of the driver-side 30% overlap rule: the comparable
  * column pairs computed from the encoding must equal those DuckDB derives
  * from per-column distinct counts and shared distinct values.
  */
class OverlapProfilingSpec extends SparkSpec {

  /** DatasetsSpec's row counts. */
  private val testRows = Map(
    "Tax" -> 400, "Stock" -> 360, "Hospital" -> 360, "Food" -> 400,
    "Airport" -> 300, "Adult" -> 300, "Flight" -> 400, "Voter" -> 400)

  /** Assert that `overlappingPairs` over `df`'s encoding equals DuckDB's
    * pairs, and return them. DuckDB sees every value as a string, so numeric
    * values go through DOUBLE (1 and 1.0 agree); columns are renamed to
    * c0, c1, … so no schema name can clash with a keyword.
    */
  private def assertAgreesWithDuckDb(df: DataFrame, threshold: Double = 0.3): Set[(Int, Int)] = {
    import spark.implicits._
    val pairs = PredicateSpace.overlappingPairs(EncodedRelation.fromDataFrame(df), threshold)
    val numeric = df.schema.fields.map(f => EncodedRelation.isNumericType(f.dataType))
    val vals = numeric.indices.map { c =>
      val v = if (numeric(c)) s"CAST(CAST(c$c AS DOUBLE) AS VARCHAR)" else s"c$c"
      s"SELECT DISTINCT $c AS c, $v AS v FROM r WHERE c$c IS NOT NULL"
    }
    val kinds = numeric.indices.map(c => s"($c, ${numeric(c)})").mkString(", ")
    val sql =
      s"""WITH vals AS (${vals.mkString(" UNION ALL ")}),
         |kinds AS (SELECT * FROM (VALUES $kinds) t(c, num)),
         |sizes AS (SELECT kinds.c, kinds.num, count(vals.v) AS n
         |          FROM kinds LEFT JOIN vals ON vals.c = kinds.c GROUP BY kinds.c, kinds.num),
         |shared AS (SELECT x.c AS a, y.c AS b, count(*) AS s
         |           FROM vals x JOIN vals y ON x.v = y.v AND x.c < y.c GROUP BY x.c, y.c)
         |SELECT sa.c AS a, sb.c AS b
         |FROM sizes sa JOIN sizes sb ON sa.c < sb.c AND sa.num = sb.num
         |LEFT JOIN shared ON shared.a = sa.c AND shared.b = sb.c
         |WHERE CAST(coalesce(shared.s, 0) AS DOUBLE) / greatest(1, least(sa.n, sb.n))
         |      >= CAST('$threshold' AS DOUBLE)""".stripMargin
    Oracle.assertEquivalent(
      pairs.toSeq.sorted.toDF("a", "b"), sql,
      "r" -> df.toDF(df.columns.indices.map(c => s"c$c"): _*))
    pairs
  }

  private def frame(fields: Seq[(String, DataType)], rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava,
      StructType(fields.map { case (n, t) => StructField(n, t) }))

  Datasets.all.foreach { d =>
    test(s"${d.name}: overlap pairs agree with the DuckDB oracle") {
      assertAgreesWithDuckDb(d.generate(spark, testRows(d.name)))
    }
  }

  test("crafted frame: nulls, 1 = 1.0, shared strings, numeric never pairs with string") {
    val df = frame(
      Seq("i" -> IntegerType, "d" -> DoubleType, "s1" -> StringType, "s2" -> StringType,
        "sd" -> StringType, "n1" -> DoubleType, "n2" -> DoubleType,
        "sn1" -> StringType, "sn2" -> StringType),
      Seq(
        // i {1,2,3,5} and d {1,2,7,8} share 1 = 1.0 and 2 = 2.0: 2/4.
        // s1 {x,y,z,w} and s2 {x,y,q} share x and y: 2/3.
        // sd prints exactly d's values but is a string column.
        // n1/n2 and sn1/sn2 would share only their nulls.
        Row(1, 1.0, "x", "x", "1.0", 10.0, null, "a", null),
        Row(2, 2.0, "y", "y", "2.0", null, 20.0, null, "b"),
        Row(3, 7.0, null, "q", "7.0", null, 20.0, "a", "b"),
        Row(null, 8.0, "z", null, "8.0", 10.0, 20.0, "a", "b"),
        Row(5, null, "w", "q", "1.0", 10.0, 20.0, "a", "b")))
    val pairs = assertAgreesWithDuckDb(df)
    assert(pairs == Set((0, 1), (2, 3)))
    assert(PredicateSpace.overlappingPairs(EncodedRelation.fromDataFrame(df), 0.51) == Set((2, 3)))
  }

  test("a 0-row frame yields only same-column predicates") {
    val df = frame(Seq("a" -> DoubleType, "b" -> DoubleType, "s" -> StringType), Seq.empty)
    assert(assertAgreesWithDuckDb(df).isEmpty)
    val space = PredicateSpace.build(EncodedRelation.fromDataFrame(df), 0.3)
    assert(space.size == 6 + 6 + 2)
    assert(space.predicates.forall(p => p.a.col == p.b.col))
  }

  test("a single-column frame yields only its own predicates") {
    val df = frame(Seq("a" -> DoubleType), Seq(Row(1.0), Row(2.0), Row(null)))
    assert(assertAgreesWithDuckDb(df).isEmpty)
    val space = PredicateSpace.build(EncodedRelation.fromDataFrame(df), 0.3)
    assert(space.predicates.map(_.op).toSet == Op.all.toSet)
    assert(space.predicates.forall(p => p.a.col == 0 && p.b.col == 0))
  }
}
