package repro.core

import org.apache.spark.sql.DataFrame

/** Tuple sampling for ADC mining (Sec. 7).
  *
  * The estimator p̂ = |E_J| / (|V_J|(|V_J|−1)) of the conflict-graph density
  * is unbiased; Inequality 2 turns a desired full-database threshold ε and
  * error bound α into a sample acceptance criterion, which the adjusted
  * approximation function f1' ([[F1Adjusted]]) applies.
  */
object Sampler {

  /** Uniform tuple sample of (approximately) the given fraction of D,
    * drawn without replacement via a distributed Bernoulli scan.
    */
  def sample(df: DataFrame, fraction: Double, seed: Long): DataFrame = {
    require(fraction > 0.0 && fraction <= 1.0, s"fraction out of (0,1]: $fraction")
    if (fraction >= 1.0) df else df.sample(withReplacement = false, fraction, seed)
  }
}
