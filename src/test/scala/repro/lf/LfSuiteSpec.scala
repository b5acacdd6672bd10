package repro.lf

import repro.SparkSpec
import repro.emdata.{Blocking, Datasets, EmDataGen}
import LabelingFunctions._

class LfSuiteSpec extends SparkSpec {

  private lazy val fz = EmDataGen.generate(spark, Datasets.FZ, scale = 0.3)
  private lazy val blocked = cached(Blocking.block(spark, fz))

  test("suite sizes and new-LF counts match the paper's Table 2") {
    LfSuite.paperCounts.foreach { case (ds, (total, newCnt)) =>
      val s = LfSuite.suite(ds)
      assert(s.size == total, s"$ds size")
      assert(s.count(_.isNew) == newCnt, s"$ds new count")
    }
  }

  test("all LF votes are in {-1, 0, 1}") {
    val (df, voteCols) = LabelingFunctions.withVotes(blocked, LfSuite.suite("FZ"))
    val rows = df.select(voteCols.map(org.apache.spark.sql.functions.col): _*).collect()
    rows.foreach(r => voteCols.indices.foreach { i =>
      assert(Set(-1, 0, 1).contains(r.getInt(i)))
    })
  }

  test("LFs are informative: positive votes correlate with GT matches") {
    val (df, voteCols) = LabelingFunctions.withVotes(blocked, LfSuite.suite("FZ"))
    val rows = df.select(
      (Seq("id1", "id2") ++ voteCols).map(org.apache.spark.sql.functions.col): _*).collect()
    // For the primary jaccard LF (vote_0): mean vote on matches > on non-matches.
    val (m, n) = rows.partition(r => fz.gt.contains((r.getLong(0), r.getLong(1))))
    def mean(rs: Array[org.apache.spark.sql.Row]) =
      rs.map(_.getInt(2).toDouble).sum / math.max(1, rs.length)
    assert(mean(m) > mean(n) + 0.5, s"match=${mean(m)} non=${mean(n)}")
  }

  test("LFs abstain some of the time (weak supervision, not full labels)") {
    val (df, voteCols) = LabelingFunctions.withVotes(blocked, LfSuite.suite("FZ"))
    val rows = df.select(voteCols.map(org.apache.spark.sql.functions.col): _*).collect()
    val abstains = rows.map(r => voteCols.indices.count(r.getInt(_) == 0)).sum
    assert(abstains > 0)
  }

  test("randomized thresholds change some votes but keep the suite size") {
    val orig = LfSuite.suite("AB")
    val rand = LfSuite.randomized("AB", seed = 3)
    assert(rand.size == orig.size)
    val (d1, v1) = LabelingFunctions.withVotes(blocked, orig)
    val (d2, _)  = LabelingFunctions.withVotes(blocked, rand)
    val a = d1.select(v1.map(org.apache.spark.sql.functions.col): _*).collect().map(_.toSeq)
    val b = d2.select(v1.map(org.apache.spark.sql.functions.col): _*).collect().map(_.toSeq)
    assert(a.zip(b).exists { case (x, y) => x != y })
  }

  test("randomization is deterministic in seed") {
    val a = LfSuite.randomized("FZ", seed = 5)
    val b = LfSuite.randomized("FZ", seed = 5)
    assert(a.map(_.name) == b.map(_.name))
  }

  test("sampling keeps the requested fraction, minimum 2") {
    val s = LfSuite.suite("DS")
    assert(LfSuite.sample(s, 0.5, 1).size == math.round(s.size * 0.5).toInt)
    assert(LfSuite.sample(s, 0.01, 1).size == 2)
  }

  test("modelMatch LF votes +1 on identical model tokens") {
    import spark.implicits._
    val df = Seq(("a mx0001k10", "b mx0001k10"), ("a mx0001k10", "b mx0002k10"), ("a", "b"))
      .toDF("l_name", "r_name")
    val lf = LabelingFunctions.modelMatch("mm")
    val out = df.select(lf.column.as("v")).collect().map(_.getInt(0))
    assert(out.sameElements(Array(1, -1, 0)))
  }

  test("priceBand LF: close -> +1, far -> -1, missing -> 0") {
    import spark.implicits._
    val df = Seq((100.0: java.lang.Double, 101.0: java.lang.Double),
                 (100.0: java.lang.Double, 500.0: java.lang.Double),
                 (null: java.lang.Double, 100.0: java.lang.Double))
      .toDF("l_price", "r_price")
    val lf = LabelingFunctions.priceBand("pb", close = 0.05, far = 0.5)
    val out = df.select(lf.column.as("v")).collect().map(_.getInt(0))
    assert(out.sameElements(Array(1, -1, 0)))
  }

  test("sizeUnmatch only fires negative") {
    import spark.implicits._
    val df = Seq((10: java.lang.Integer, 10: java.lang.Integer),
                 (10: java.lang.Integer, 20: java.lang.Integer),
                 (null: java.lang.Integer, 20: java.lang.Integer))
      .toDF("l_size", "r_size")
    val lf = LabelingFunctions.sizeUnmatch("su")
    val out = df.select(lf.column.as("v")).collect().map(_.getInt(0))
    assert(out.sameElements(Array(0, -1, 0)))
  }

  test("brandUnmatch fires only on differing brands") {
    import spark.implicits._
    val df = Seq(("acme", "acme"), ("acme", "zenix")).toDF("l_brand", "r_brand")
    val lf = LabelingFunctions.brandUnmatch("bu")
    val out = df.select(lf.column.as("v")).collect().map(_.getInt(0))
    assert(out.sameElements(Array(0, -1)))
  }
}
