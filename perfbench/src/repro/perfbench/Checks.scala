package repro.perfbench

import java.nio.file.{Files, Path}

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.Oracle
import repro.core.MajorityVote
import repro.emdata.EmDataGen

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Output checks on every job the benchmark runs.
  *
  *   - every model returns one soft label per labeling-matrix row, each
  *     finite and in [0, 1];
  *   - every run of a job returns the same soft labels as its first run;
  *   - each job × model quality score equals the one recorded for this
  *     workload and seed in the expected-quality file, when there is one.
  */
final class Checks(expected: Map[(String, String), Double]) {
  private val reference = mutable.LinkedHashMap.empty[(String, String), Labeled]

  def check(jobId: String, out: JobOut): Seq[String] =
    (if (out.labels.isEmpty) Seq("no labels") else Nil) ++ out.labels.flatMap { l =>
      val key = (jobId, l.model)
      val ref = reference.getOrElseUpdate(key, l)
      Seq(
        Option.when(l.gamma.length != out.rows)(s"${l.model}: ${l.gamma.length} labels for ${out.rows} rows"),
        Option.when(!l.gamma.forall(g => g >= 0.0 && g <= 1.0))(s"${l.model}: label outside [0,1] or not finite"),
        Option.when(!l.gamma.sameElements(ref.gamma))(s"${l.model}: labels differ from the job's first run"),
        expected.get(key).filter(e => math.abs(e - l.score) > 1e-9)
          .map(e => s"${l.model}: quality ${l.score} != recorded $e"),
      ).flatten
    }

  /** Writes the first-run score of every job × model, in the format of the
    * expected-quality file.
    */
  def writeScores(path: Path, workload: String, seed: Long): Unit = {
    Files.createDirectories(path.getParent)
    Files.write(path, reference.toSeq.map { case ((job, model), l) =>
      s"$workload\t$seed\t$job\t$model\t${l.score}"
    }.asJava)
  }
}

object Checks {

  /** Expected-quality file: tab-separated `workload seed job model score`;
    * seed `*` holds for every seed, `#` starts a comment.
    */
  def loadExpected(path: Option[Path], workload: String, seed: Long): Map[(String, String), Double] =
    path.filter(Files.exists(_)).toSeq.flatMap(p => Files.readAllLines(p).asScala)
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split("\t"))
      .collect { case Array(w, s, job, model, score) if w == workload && (s == "*" || s.toLong == seed) =>
        (job, model) -> score.toDouble
      }.toMap

  /** DuckDB cross-checks, run once per run outside the timed region on the
    * first job of timed pass 1: its candidate-pair count against a DuckDB
    * token join over the same record tables, and its majority-vote labels
    * against DuckDB. Returns (check, error) pairs.
    */
  def oracle(spark: SparkSession, wl: Workload, out: JobOut): Seq[(String, Option[String])] = {
    def attempt(name: String)(body: => Unit) = name -> Try(body).failed.toOption.map(_.getMessage)
    val ds = EmDataGen.generate(spark, wl.pass(1).head.cfg, wl.scale)
    Seq(
      attempt("candidate_pairs")(candidatePairs(spark, ds, out.rows)),
      attempt("majority_vote")(majorityVote(spark, out.votes)))
  }

  /** The overlap blocker in SQL: records share a lower-cased, whitespace-
    * separated name token that is not a stopword (a token in more than
    * max(20, 2%) of all records).
    */
  private def candidatePairs(spark: SparkSession, ds: EmDataGen.EmDataset, pairs: Int): Unit = {
    val twoTable = ds.cfg.twoTable
    val recs = if (twoTable) "SELECT rid, name FROM l UNION ALL SELECT rid, name FROM r" else "SELECT rid, name FROM l"
    def toks(t: String) =
      s"SELECT DISTINCT CAST(rid AS BIGINT) AS rid, unnest(string_split_regex(lower(name), '\\s+')) AS tok FROM $t"
    val sql =
      s"""WITH recs AS ($recs),
         |doc AS (SELECT DISTINCT rid, unnest(string_split_regex(lower(name), '\\s+')) AS tok FROM recs),
         |stop AS (SELECT tok FROM doc GROUP BY tok
         |         HAVING count(*) > greatest(20.0, 0.02 * (SELECT count(*) FROM recs))),
         |lt AS (${toks("l")}), rt AS (${toks(if (twoTable) "r" else "l")})
         |SELECT count(*) AS n FROM (
         |  SELECT DISTINCT lt.rid AS id1, rt.rid AS id2 FROM lt JOIN rt ON lt.tok = rt.tok
         |  WHERE lt.tok <> '' AND lt.tok NOT IN (SELECT tok FROM stop)
         |  ${if (twoTable) "" else "AND lt.rid < rt.rid"})""".stripMargin
    Oracle.assertEquivalent(spark.range(1).select(lit(pairs.toLong).as("n")), sql,
      "l" -> ds.left.select("rid", "name"), "r" -> ds.right.select("rid", "name"))
  }

  private def majorityVote(spark: SparkSession, votes: Array[Array[Int]]): Unit = {
    import spark.implicits._
    val gamma = MajorityVote.fitPredict(votes)
    val labels = gamma.indices.map(i => (i.toLong, gamma(i))).toDF("r", "gamma")
    val cols = votes.head.indices.map(j => s"v$j")
    val wide = spark.createDataFrame(
      spark.sparkContext.parallelize(votes.indices.map(i => Row.fromSeq(i.toLong +: votes(i).toSeq))),
      StructType(StructField("r", LongType) +: cols.map(StructField(_, IntegerType))))
    val sum = cols.map(c => s"CAST($c AS INTEGER)").mkString(" + ")
    val sql =
      s"""SELECT CAST(r AS BIGINT) AS r,
         |  CASE WHEN $sum > 0 THEN 1.0 WHEN $sum < 0 THEN 0.0 ELSE 0.45 END AS gamma
         |FROM votes""".stripMargin
    Oracle.assertEquivalent(labels, sql, "votes" -> wide)
  }
}
