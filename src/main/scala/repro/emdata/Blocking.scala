package repro.emdata

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Overlap blocker — analogue of py_entitymatching's OverlapBlocker, as a
  * pure Spark dataflow: tokenize names, drop stopwords (tokens with high
  * document frequency carry no blocking signal), then join the two token
  * streams and keep record pairs sharing at least `minOverlap` tokens.
  *
  * For single-table datasets the join is the self-join with id1 < id2.
  * The result carries both sides' attributes, prefixed l_/r_ — the pair
  * table that LFs and feature engineering consume.
  */
object Blocking {

  /** Tokens of `name` per record, stopwords removed. The stopword test is a
    * native `IN` predicate over the collected set, so the filter stays inside
    * the generated code and needs no broadcast.
    */
  private def tokens(df: DataFrame, stopwords: Set[String]): DataFrame =
    df.select(col("rid"), explode(split(lower(col("name")), "\\s+")).as("tok"))
      .where(col("tok") =!= "" && !col("tok").isin(stopwords.toSeq: _*))

  /** Stopwords: tokens appearing in more than `frac` of the `n` records of
    * `dfs`. The caller passes `n`, which the dataset already holds, so no
    * Spark job counts the records.
    */
  def stopwords(dfs: Seq[DataFrame], n: Long, frac: Double = 0.02): Set[String] = {
    val limit = math.max(20.0, frac * n)
    dfs.map(_.select("name")).reduce(_ union _)
      .select(explode(array_distinct(split(lower(col("name")), "\\s+"))).as("tok"))
      .groupBy("tok").count()
      .where(col("count") > limit)
      .collect().map(_.getString(0)).toSet
  }

  /** Candidate pairs (id1, id2) with all pair attributes. */
  def block(spark: SparkSession, ds: EmDataGen.EmDataset,
            minOverlap: Int = 1, stopFrac: Double = 0.02): DataFrame = {
    val stops =
      if (ds.cfg.twoTable) stopwords(Seq(ds.left, ds.right), ds.nLeft + ds.nRight, stopFrac)
      else stopwords(Seq(ds.left), ds.nLeft, stopFrac)
    val lt = tokens(ds.left, stops).withColumnRenamed("rid", "id1")
    val rt = tokens(ds.right, stops).withColumnRenamed("rid", "id2")
    val joined = lt.join(rt, "tok")
    val filtered =
      if (ds.cfg.twoTable) joined
      else joined.where(col("id1") < col("id2"))
    val cand = filtered.groupBy("id1", "id2").count()
      .where(col("count") >= minOverlap)
      .select("id1", "id2")

    val lAttr = ds.left.select(
      col("rid").as("id1"), col("name").as("l_name"), col("brand").as("l_brand"),
      col("price").as("l_price"), col("size").as("l_size"), col("year").as("l_year"))
    val rAttr = ds.right.select(
      col("rid").as("id2"), col("name").as("r_name"), col("brand").as("r_brand"),
      col("price").as("r_price"), col("size").as("r_size"), col("year").as("r_year"))
    cand.join(lAttr, "id1").join(rAttr, "id2")
  }

  /** Blocking recall: fraction of GT matches surviving into the candidate set. */
  def recall(candidates: Set[(Long, Long)], gt: Set[(Long, Long)]): Double =
    if (gt.isEmpty) 1.0 else gt.count(candidates.contains).toDouble / gt.size
}
