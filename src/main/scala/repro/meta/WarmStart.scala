package repro.meta

import repro.core.{Observation, RunHistory}
import repro.space.{Config, ConfigSpace}
import repro.surrogate.{Gp, MixedKernel, Surrogate}
import repro.meta.TaskSimilarity.DistanceModel

/** A finished source task in the knowledge repository: meta-features, its
  * tuning history, and a surrogate fitted on that history. */
final case class SourceTask(name: String,
                            metaFeatures: Array[Double],
                            history: Vector[Observation],
                            surrogate: Surrogate)

object SourceTask {
  /** Fit a GP surrogate over a source task's history (log-objective). */
  def fromHistory(cs: ConfigSpace, name: String, metaFeatures: Array[Double],
                  history: Vector[Observation]): SourceTask = {
    val xs = history.map(o => cs.toUnit(o.config)).toArray
    val ys = history.map(o => math.log(o.objective.max(1e-9))).toArray
    val gp = Gp.fit(xs, ys, MixedKernel.family(cs, withDataSize = false))
    SourceTask(name, metaFeatures, history, gp)
  }
}

/** Warm-starting and meta-surrogate assembly (§5.2). */
object WarmStart {
  final val Top = 3

  /** Rank source tasks by learned similarity to the target's meta-features
    * and return the [[Top]] most similar. */
  def similarSources(model: DistanceModel, targetMeta: Array[Double],
                     sources: Seq[SourceTask]): Seq[(SourceTask, Double)] =
    sources.map(s => (s, model.distance(targetMeta, s.metaFeatures)))
      .sortBy(_._2).take(Top)

  /** Initial configurations for the target task: the best configuration
    * found in each of the [[Top]] most similar source tasks ("select the
    * best Spark configuration found in these top-3 tasks"). */
  def initialConfigs(model: DistanceModel, targetMeta: Array[Double],
                     sources: Seq[SourceTask]): Vector[Config] =
    similarSources(model, targetMeta, sources)
      .flatMap { case (s, _) => RunHistory.ranked(s.history).headOption.map(_.config) }.toVector

  /** Base surrogates + similarity weights wᵢ = 1 − Dist(Mⁱ, Mᵗ) for the
    * ensemble of Eq. 12 (normalization happens inside MetaEnsemble). */
  def ensembleBases(model: DistanceModel, targetMeta: Array[Double],
                    sources: Seq[SourceTask]): Vector[(Surrogate, Double)] =
    similarSources(model, targetMeta, sources)
      .map { case (s, d) => (s.surrogate, 1.0 - d) }.toVector
}
