package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.emdata.{Blocking, Datasets, EmDataGen, Features}
import repro.lf.{LabelingFunctions, LfSuite}
import repro.zeroer.ZeroEr

/** Prepares a dataset end-to-end (generate → block → LF votes) and exposes
  * the evaluation closure every experiment shares. Features are computed
  * only when a caller first reads them.
  */
object Runner {

  /** A prepared dataset: the blocked candidate pairs, their labeling matrix
    * and ground truth, all row-aligned with `pairs`.
    *
    * `pairDf` is the uncached pair table with the vote columns. `feats` and
    * `textFeats` are computed from it on first use and aligned to `pairs` by
    * pair key, since a recompute of an uncached plan may return its rows in
    * another order.
    */
  final class Prepared(val ds: EmDataGen.EmDataset,
                       val pairDf: DataFrame,
                       val pairs: Array[(Long, Long)],
                       val votes: Array[Array[Int]],
                       val truth: Array[Int],
                       val lfs: Seq[LabelingFunctions.Lf],
                       featureSource: () => (Array[Array[Double]], Array[Array[Double]])) {
    private lazy val features = featureSource()
    /** Magellan-style features ([[Features.featureCols]]), one row per pair. */
    def feats: Array[Array[Double]] = features._1
    /** The text-only subset ([[Features.textFeatureCols]]) of `feats`. */
    def textFeats: Array[Array[Double]] = features._2

    def cfg: EmDataGen.EmConfig = ds.cfg
    val candSet: Set[(Long, Long)] = pairs.toSet

    /** Predicted match set from soft labels (candidate pairs with γ ≥ 0.5),
      * restricted to the labeled scope on partial-GT datasets.
      */
    def predictedSet(gamma: Array[Double]): Set[(Long, Long)] = {
      val p = pairs.indices.collect { case i if gamma(i) >= 0.5 => pairs(i) }.toSet
      ds.evalScope match {
        case Some(scope) => p.intersect(scope)
        case None        => p
      }
    }

    /** F1 against ground truth. GT matches lost by blocking count as false
      * negatives — honest end-to-end scoring.
      */
    def f1(gamma: Array[Double]): Double = Metrics.f1(predictedSet(gamma), ds.evalTruth)
    def prf(gamma: Array[Double]): Metrics.Prf = Metrics.prf(predictedSet(gamma), ds.evalTruth)

    /** F1 for an explicit predicted pair set (postprocessing baselines). */
    def f1Of(predicted: Set[(Long, Long)]): Double = {
      val scoped = ds.evalScope.map(predicted.intersect).getOrElse(predicted)
      Metrics.f1(scoped, ds.evalTruth)
    }

    def blockingRecall: Double = Blocking.recall(candSet, ds.gt)
  }

  object Prepared {
    /** A prepared dataset whose features are already computed. */
    def apply(ds: EmDataGen.EmDataset, pairDf: DataFrame, pairs: Array[(Long, Long)],
              votes: Array[Array[Int]], feats: Array[Array[Double]],
              textFeats: Array[Array[Double]], truth: Array[Int],
              lfs: Seq[LabelingFunctions.Lf]): Prepared =
      new Prepared(ds, pairDf, pairs, votes, truth, lfs, () => (feats, textFeats))
  }

  private val textIdx = Features.textFeatureCols.map(Features.featureCols.indexOf).toArray

  /** Features of `pairDf`'s rows, reordered to follow `pairs`. */
  private def features(pairDf: DataFrame, pairs: Array[(Long, Long)])
      : (Array[Array[Double]], Array[Array[Double]]) = {
    val (ids, xs) = Features.collect(Features.withFeatures(pairDf))
    val byPair = ids.iterator.zip(xs.iterator).toMap
    require(byPair.size == pairs.length,
      s"${byPair.size} feature rows for ${pairs.length} candidate pairs")
    val feats = pairs.map(byPair)
    (feats, feats.map(f => textIdx.map(f)))
  }

  /** Generate + block + vote one dataset at `scale`.
    *
    * The vote frame is cached only while it is collected: the cached plan
    * keeps the final id2 shuffle's partitions (AQE may not coalesce a cached
    * plan's output), and with them the row order of `pairs` and `votes` that
    * the labeling models see. It is released before `prepare` returns.
    */
  def prepare(spark: SparkSession, cfg: EmDataGen.EmConfig, scale: Double,
              lfsOverride: Option[Seq[LabelingFunctions.Lf]] = None): Prepared = {
    val ds = EmDataGen.generate(spark, cfg, scale)
    val lfs = lfsOverride.getOrElse(LfSuite.suite(cfg.name))
    val (voted, voteCols) = LabelingFunctions.withVotes(Blocking.block(spark, ds), lfs)
    val (pairs, votes) =
      try LabelMatrix.collect(voted.cache(), voteCols)
      finally voted.unpersist()
    val truth = pairs.map(p => if (ds.gt.contains(p)) 1 else 0)
    new Prepared(ds, voted, pairs, votes, truth, lfs, () => features(voted, pairs))
  }

  // ---- Method registry (Tables 3, 6, 8, 11) --------------------------------

  /** Weak-supervision baselines operating on the labeling matrix alone. */
  val wsBaselines: Seq[LabelModel] = Seq(MajorityVote, DawidSkene, Ebcc, FlyingSquid, SnorkelModel)

  /** SIMPLE-EM on a prepared dataset (detects duplicate-freeness itself). */
  def simpleEm(p: Prepared, seed: Long = 0): SimpleEm.Output =
    if (p.cfg.twoTable)
      SimpleEm.runTwoTable(p.votes, p.pairs, p.ds.nLeft, p.ds.nRight, seed)
    else
      SimpleEm.runSingleTable(p.votes, p.pairs, seed)

  /** ZeroER on a prepared dataset (its own features, no LFs). */
  def zeroEr(p: Prepared, seed: Long = 0): Array[Double] =
    ZeroEr.fitPredict(p.feats,
      jaccardIdx = Features.featureCols.indexOf("f_jaccard"),
      modelEqIdx = Features.featureCols.indexOf("f_model_eq"),
      seed = seed)
}
