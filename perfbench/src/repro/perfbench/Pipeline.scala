package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.emdata.{Blocking, EmDataGen, Features}
import repro.exp.Runner
import repro.lf.{LabelingFunctions, LfSuite}
import repro.ml.{CrossVal, RandomForest, Smote}

import scala.collection.mutable

/** Soft labels of one model on one job, with the job's quality score. */
final case class Labeled(model: String, gamma: Array[Double], score: Double)

/** What a job produced: its labeling matrix, the labels, and the time spent
  * in `Runner.prepare`.
  */
final case class JobOut(votes: Array[Array[Int]], labels: Seq[Labeled], prepareSeconds: Double) {
  def rows: Int = votes.length
}

object Pipeline {

  /** Label models scored on matrix-only jobs; `D&S` is reported as `DS`. */
  def shortName(m: LabelModel): String = m.name.replace("&", "")

  /** The untraced job, as a client of the program runs it. */
  def run(spark: SparkSession, scale: Double)(j: Job): JobOut = {
    val t0 = System.nanoTime()
    val p = Runner.prepare(spark, j.cfg, scale, j.lfs)
    val prepareSeconds = (System.nanoTime() - t0) / 1e9
    try {
      val labels =
        if (j.simpleEm) {
          val g = Runner.simpleEm(p, seed = 0).gamma
          Seq(Labeled("SIMPLE-EM", g, p.f1(g)))
        } else Runner.wsBaselines.map { m =>
          val g = m.fitPredict(p.votes, seed = 0)
          Labeled(shortName(m), g, p.f1(g))
        }
      JobOut(p.votes, labels, prepareSeconds)
    } finally p.pairDf.unpersist()
  }

  /** Arguments `Simple` passes to its M-step (its constructor defaults). */
  val SimpleNumTrees = 25
  val SimpleDepths: Seq[Int] = Seq(2, 4, 6, 9)
  val SimpleAlphas: Seq[Double] = Seq(0.0, 0.001, 0.01)
  val CvFolds = 3
}

/** The traced job: the same calls into the program as [[Pipeline.run]], with
  * a span around each, Spark layers materialized one at a time, SIMPLE run
  * with a counting constraint hook, and every EM iteration's M-step replayed
  * through the public `ml` entry points.
  */
final class TracedPipeline(spark: SparkSession, scale: Double, tracer: Tracer) {
  import Pipeline._

  /** Counts gathered at the layer boundaries. */
  val counts: mutable.Map[String, Double] = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  /** M-step replays whose prediction differed from the γ* SIMPLE produced. */
  var replayMismatches = 0

  private def tally(name: String, v: Double): Unit = counts(name) += v

  def run(j: Job): JobOut = tracer.inJob(j.id) {
    val p = prepare(j)
    try {
      val labels =
        if (j.simpleEm) {
          val g = simpleEm(p)
          Seq(Labeled("SIMPLE-EM", g, p.f1(g)))
        } else baselines(p.votes).map { case (n, g) => Labeled(n, g, p.f1(g)) }
      JobOut(p.votes, labels, 0.0)
    } finally p.pairDf.unpersist()
  }

  /** `Runner.prepare`, split into its layers; each Spark layer is cached and
    * counted inside its own span.
    */
  private def prepare(j: Job): Runner.Prepared = tracer.span("prepare") {
    val ds = tracer.span("datagen") { EmDataGen.generate(spark, j.cfg, scale) }
    val blocked = tracer.span("blocking") {
      val b = Blocking.block(spark, ds).cache()
      b.count()
      b
    }
    val lfs = j.lfs.getOrElse(LfSuite.suite(j.cfg.name))
    val (voted, pairs, votes) = tracer.span("lf") {
      val (v, voteCols) = LabelingFunctions.withVotes(blocked, lfs)
      val vc = v.cache()
      vc.count()
      val (pairs, votes) = LabelMatrix.collect(vc, voteCols)
      (vc, pairs, votes)
    }
    val (full, feats) = tracer.span("features") {
      val f = Features.withFeatures(voted).cache()
      f.count()
      val (fp, xs) = Features.collect(f)
      require(fp.sameElements(pairs), "feature rows are not aligned with the labeling matrix")
      (f, xs)
    }
    blocked.unpersist()
    voted.unpersist()
    val textIdx = Features.textFeatureCols.map(Features.featureCols.indexOf)
    val truth = pairs.map(p => if (ds.gt.contains(p)) 1 else 0)
    val p = Runner.Prepared(ds, full, pairs, votes, feats, feats.map(f => textIdx.map(f).toArray), truth, lfs)

    tally("blocking.candidates", pairs.length)
    tally("blocking.matches", truth.sum)
    tally("blocking.recall_sum", p.blockingRecall)
    tally("blocking.jobs", 1)
    tally("lf.vote_cells", votes.length.toDouble * lfs.size)
    tally("lf.abstains", votes.iterator.map(_.count(_ == 0)).sum)
    tally("matrix.rows", votes.length)
    tally("matrix.distinct_rows", votes.iterator.map(_.toSeq).distinct.size)
    p
  }

  private def baselines(votes: Array[Array[Int]]): Seq[(String, Array[Double])] =
    tracer.span("baselines") {
      Runner.wsBaselines.map { m =>
        val n = shortName(m)
        n -> tracer.span(s"model.$n") { m.fitPredict(votes, seed = 0) }
      }
    }

  /** `SimpleEm.runTwoTable` / `runSingleTable` with label-model seed 0,
    * called step by step.
    */
  private def simpleEm(p: Runner.Prepared): Array[Double] = {
    val seed = 0L
    if (p.cfg.twoTable) {
      val base = simpleRun(p.votes, seed, None)
      val matches = p.pairs.indices.filter(base(_) >= 0.5).map(p.pairs)
      val ldf = tracer.span("dupfree") { DupFreeDetect.leftDupFree(matches, p.ds.nRight, seed = seed + 1) }
      val rdf = tracer.span("dupfree") { DupFreeDetect.rightDupFree(matches, p.ds.nLeft, seed = seed + 2) }
      val strategy = (ldf.dupFree, rdf.dupFree) match {
        case (true, true)   => SimpleEm.BothDupFree
        case (true, false)  => SimpleEm.LeftDupFree
        case (false, true)  => SimpleEm.RightDupFree
        case (false, false) => SimpleEm.NoTrans
      }
      if (strategy == SimpleEm.NoTrans) base
      else simpleRun(p.votes, seed, Some(SimpleEm.transform(strategy, p.pairs)))
    } else simpleRun(p.votes, seed, Some(SimpleEm.transform(SimpleEm.SingleTable, p.pairs)))
  }

  /** Constraint hook handed to `new Simple(constrain = ...)`: records every
    * γ* it receives and the γ it returns, and times the constraint.
    */
  private final class Hook(constraint: Option[Array[Double] => Array[Double]])
      extends (Array[Double] => Array[Double]) {
    val seen     = mutable.ArrayBuffer.empty[Array[Double]]
    val returned = mutable.ArrayBuffer.empty[Array[Double]]

    def apply(gammaStar: Array[Double]): Array[Double] = {
      seen += gammaStar.clone()
      val out = constraint match {
        case None => gammaStar
        case Some(f) =>
          val g = tracer.span("transitivity") { f(gammaStar) }
          tally("transitivity.calls", 1)
          tally("transitivity.labels", g.length)
          tally("transitivity.flips", g.indices.count(i => (g(i) >= 0.5) != (gammaStar(i) >= 0.5)))
          g
      }
      returned += out.clone()
      out
    }
  }

  private def simpleRun(votes: Array[Array[Int]], seed: Long,
                        constraint: Option[Array[Double] => Array[Double]]): Array[Double] = {
    val hook = new Hook(constraint)
    val gamma = tracer.span("simple") { new Simple(constrain = hook).fitPredict(votes, seed) }
    tally("simple.runs", 1)
    tally("simple.estep_calls", hook.seen.size)
    replay(votes, seed, hook)
    gamma
  }

  /** Replays each M-step from the γ the hook returned, and checks that the
    * refitted forest predicts exactly the γ* of the next E-step.
    */
  private def replay(votes: Array[Array[Int]], seed: Long, hook: Hook): Unit = {
    val xs = votes.map(_.map(_.toDouble))
    for (iter <- 0 until hook.seen.size - 1) tracer.span("mstep") {
      val y = LabelModel.harden(hook.returned(iter))
      val (bx, by) = tracer.span("smote") { Smote.balance(xs, y, k = 5, seed = seed + iter) }
      val params = tracer.span("crossval") {
        CrossVal.selectRfParams(bx, by, SimpleDepths, SimpleAlphas, folds = CvFolds,
          numTrees = SimpleNumTrees, seed = seed + 31 * iter)
      }
      val model = tracer.span("rf.fit") { RandomForest.fit(bx, by, params, seed = seed + 97 * iter) }
      val pred = tracer.span("rf.predict") { xs.map(model.predictProba) }
      tally("smote.rows_out", bx.length)
      tally("crossval.forests", SimpleDepths.size * SimpleAlphas.size * CvFolds)
      if (!pred.sameElements(hook.seen(iter + 1))) replayMismatches += 1
    }
  }
}
