package perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Runs every workload at 60 rows, untraced and traced, and checks that the
  * result line parses and carries each metric BENCHMARK.json names, with its
  * unit. Run with `sbt test` from the benchmark directory.
  */
class SmokeSpec extends AnyFunSuite with BeforeAndAfterAll {
  private val mapper = new ObjectMapper()
  private val workDir = new File("../.bench_build/perfbench-smoke").getCanonicalPath
  private lazy val spark = Main.session(workDir)

  private val spec: JsonNode = {
    val start = new File(sys.props("user.dir")).getCanonicalFile
    val file = Iterator.iterate(start)(_.getParentFile).takeWhile(_ != null)
      .map(new File(_, "BENCHMARK.json")).find(_.isFile)
      .getOrElse(fail(s"no BENCHMARK.json above $start"))
    mapper.readTree(file)
  }

  override def afterAll(): Unit = { spark.stop(); super.afterAll() }

  private def names(section: String): Seq[(String, String)] =
    spec.get(section).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  for (w <- spec.get("workloads").elements().asScala.map(_.get("name").asText); trace <- Seq(false, true))
    test(s"$w emits every ${if (trace) "per-layer" else "end-to-end"} metric") {
      val opts = Opts(workload = w, seconds = 0, trace = trace, rows = Some(60), warmups = 1,
        minTimed = 1,
        workDir = workDir)
      val line = Json.write(Main.run(spark, opts))
      val r = mapper.readTree(line)
      assert(r.get("errors").size == 0, r.get("errors").toString)
      assert(r.get("failed").asInt == 0)
      assert(r.get("attempted").asInt >= 1)
      val metrics = r.get("metrics")
      for ((name, unit) <- names(if (trace) "per_layer" else "end_to_end")) {
        val m = metrics.get(name)
        assert(m != null, s"$name missing")
        assert(m.get("unit").asText == unit, s"$name unit")
        assert(m.get("value").isNumber, s"$name value")
      }
      if (trace) assert(metrics.get("AdcEnum.nodes").get("value").asLong == r.get("nodes").asLong)
    }
}
