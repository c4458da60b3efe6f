package perfbench

import repro.core.MinerConfig
import repro.data.{AdultData, BenchDataset, TaxData}

/** One named benchmark input: a generated dataset at a fixed row count and
  * the miner configuration it is mined with.
  */
final case class Workload(
    name: String,
    dataset: BenchDataset,
    rows: Int,
    cfg: MinerConfig,
)

object Workloads {

  /** Seed of the relation's content (`BenchDataset.rows`). */
  val DataSeed = 7L

  /** The workloads by name; `perfbench/README.md` gives each one's rationale. */
  def all(seed: Long): Seq[Workload] = Seq(
    // Enumeration-bound: nearly as many evidence classes as pairs, so
    // ADCEnum's per-node cost dominates and evidence is cheap.
    Workload("adult-f1-enum", AdultData, 40,
      MinerConfig(fName = "f1", epsilon = 1e-4, maxDcSize = 3, seed = seed)),
    // Sec. 7 sampling plus a set-based g: profile the full relation, mine a
    // half sample; evidence runs the vios pass and GreedyF3 walks it.
    Workload("tax-sample-f3-vios", TaxData, 800,
      MinerConfig(fName = "f3", epsilon = 0.1, sampleFraction = 0.5, maxDcSize = 2,
        seed = seed)),
  )

  def byName(name: String, seed: Long): Workload =
    all(seed).find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all(seed).map(_.name).mkString(", ")}"))
}
