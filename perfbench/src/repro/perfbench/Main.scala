package repro.perfbench

import java.nio.file.{Path, Paths}

import org.apache.spark.BenchListenerBus
import org.apache.spark.sql.SparkSession

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** Closed-loop batch client: one driver thread submits the workload's
  * labeling jobs one after another, each only after the previous one has
  * finished.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --work-dir <dir> [--expected <tsv>]
  *
  * Set-up starts Spark and runs a fixed number of warm-up passes over the
  * workload's jobs. The timed region then runs whole passes until
  * `--seconds` have been measured, at least two. With `--trace 0` it prints
  * the end-to-end metrics; with `--trace 1` it also runs one traced pass and
  * prints the per-layer metrics. The last line of stdout is a JSON object.
  */
object Main {

  // Pinned, never read from the environment: the Spark master (k = 2 cores
  // fits every machine this runs on), the shuffle partitions, broadcast
  // joins off as in the repository's jobs. The driver heap is pinned by the
  // launcher's -Xmx.
  val Master            = "local[2]"
  val ShufflePartitions = 2

  // Warm-up: passes 0, -1, -2, -3. On two cores the JIT keeps shortening
  // passes by 5-15% each for about eight passes, longer than a run can
  // afford, so the warm-up is a fixed number of passes: every run takes its
  // timed passes at the same point of the warm-up curve. The setup line
  // prints the CPU-time ratio of the last two warm-up passes.
  val WarmPasses = 4
  // At least two timed passes: the heap drift needs two, and the median over
  // passes then never rests on one pass.
  val MinTimedPasses = 2

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        workDir: Path, expected: Option[Path])

  final case class JobResult(job: Job, seconds: Double, out: Option[JobOut], problems: Seq[String])

  final case class PassResult(seconds: Double, jobs: Seq[JobResult], cpuSeconds: Double, gcSeconds: Double) {
    def prepareSeconds: Double = jobs.flatMap(_.out).map(_.prepareSeconds).sum
  }

  final case class Metric(name: String, value: Double, unit: String, samples: Int)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      Paths.get(need("work-dir")), kv.get("expected").map(Paths.get(_)))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def startSpark(workDir: Path): SparkSession = SparkSession.builder
    .master(Master)
    .appName("perfbench")
    .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", false)
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", workDir.resolve("spark-local").toString)
    .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
    .getOrCreate()

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workloads(o.workload, o.seed)
    val expected = Checks.loadExpected(o.expected, o.workload, o.seed)
    println(s"perfbench workload=${o.workload} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}")
    println(s"env master=$Master shuffle.partitions=$ShufflePartitions " +
      s"driver.heap.max_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} cores=${Jvm.cores} " +
      s"java=${System.getProperty("java.version")} jobs/pass=${wl.pass(0).size}")

    // ---- set-up: Spark session start + warm-up passes ----
    val checks = new Checks(expected)
    def runPass(jobs: Seq[Job], run: Job => JobOut): PassResult = {
      val cpu0 = Jvm.cpuSeconds
      val gc0 = Jvm.gcSeconds
      val (results, dt) = timed(jobs.map { job =>
        val (out, s) = timed(Try(run(job)))
        out match {
          case Success(r) => JobResult(job, s, Some(r), checks.check(job.id, r))
          case Failure(e) => JobResult(job, s, None, Seq(s"threw $e"))
        }
      })
      PassResult(dt, results, Jvm.cpuSeconds - cpu0, Jvm.gcSeconds - gc0)
    }

    val t0 = System.nanoTime()
    val spark = startSpark(o.workDir)
    val sessionStart = (System.nanoTime() - t0) / 1e9
    val untraced = Pipeline.run(spark, wl.scale) _
    val warm = (0 until WarmPasses).map { k =>
      val p = runPass(wl.pass(-k), untraced)
      Jvm.retainedHeapMb()
      p
    }
    val setupSeconds = (System.nanoTime() - t0) / 1e9
    println(f"setup session_start_s=$sessionStart%.3f warmup_passes_s=${warm.map(p => f"${p.seconds}%.3f").mkString(",")} " +
      s"cpu_s=${warm.map(p => f"${p.cpuSeconds}%.3f").mkString(",")} " +
      f"last_cpu_ratio=${warm.last.cpuSeconds / warm(warm.size - 2).cpuSeconds}%.3f")

    // ---- timed region: passes 1, 2, ... ----
    val counter = new SparkCounter
    if (o.trace) spark.sparkContext.addSparkListener(counter)
    val passes = mutable.ArrayBuffer.empty[PassResult]
    val heaps = mutable.ArrayBuffer.empty[Double]
    var firstPassSpark = SparkCounter.Snapshot(0, 0, 0, 0)
    while (passes.size < MinTimedPasses || passes.map(_.seconds).sum < o.seconds) {
      val jobs = wl.pass(passes.size + 1)
      val before = counter.snapshot()
      passes += runPass(jobs, untraced)
      if (passes.size == 1 && o.trace) {
        BenchListenerBus.drain(spark.sparkContext)
        firstPassSpark = counter.snapshot() - before
      }
      heaps += Jvm.retainedHeapMb()
    }
    println(s"timed passes_s=${passes.map(p => f"${p.seconds}%.3f").mkString(",")} " +
      s"cpu_s=${passes.map(p => f"${p.cpuSeconds}%.3f").mkString(",")} " +
      s"retained_heap_mb=${heaps.map(h => f"$h%.1f").mkString(",")}")

    val jobResults = passes.flatMap(_.jobs).toSeq
    val outs = jobResults.flatMap(_.out)
    val passRowsPerS = passes.map(p => p.jobs.flatMap(_.out).map(_.rows.toDouble).sum / p.seconds).toSeq
    val quality = outs.flatMap(_.labels.map(_.score))

    // ---- traced pass: pass 1 again, separate from the untraced passes ----
    val tracer = new Tracer
    val traced = if (o.trace) {
      val tp = new TracedPipeline(spark, wl.scale, tracer)
      Some((runPass(wl.pass(1), tp.run), tp))
    } else None

    // ---- once per run, outside the timed region: DuckDB oracle checks ----
    val (oracle, oracleSeconds) = timed(passes.head.jobs.head.out match {
      case Some(out) => Checks.oracle(spark, wl, out)
      case None      => Seq("oracle" -> Some("the first timed job produced no output"))
    })
    println(f"oracle checks=${oracle.size} seconds=$oracleSeconds%.3f")

    // ---- report: every job run is checked, warm-up and traced pass too ----
    val phases = Seq("warm-up" -> warm, "timed" -> passes.toSeq) ++ traced.map(t => "traced" -> Seq(t._1))
    val allJobs = phases.flatMap { case (phase, ps) => ps.flatMap(_.jobs).map(phase -> _) }
    val failedJobs = allJobs.count(_._2.problems.nonEmpty)
    val replayMismatches = traced.map(_._2.replayMismatches).getOrElse(0)
    val problems =
      allJobs.collect { case (phase, r) if r.problems.nonEmpty => s"$phase ${r.job.id}: ${r.problems.mkString("; ")}" } ++
        oracle.collect { case (name, Some(err)) => s"oracle $name: $err" } ++
        (if (replayMismatches > 0) Seq(s"$replayMismatches replayed M-steps differ from SIMPLE's next E-step") else Nil)
    problems.distinct.foreach(p => println(s"FAILED $p"))
    checks.writeScores(o.workDir.resolve(s"scores-${o.workload}-${o.seed}.tsv"), o.workload, o.seed)

    // job_s.p50 is printed but not in the result line: a run holds only a few
    // jobs of unlike sizes, and their median spread too widely between runs
    // to be held to a bound.
    val jobP50 = Metric("job_s.p50", median(jobResults.map(_.seconds)), "s", jobResults.size)
    val metrics: Seq[Metric] = traced match {
      case None =>
        Seq(
          Metric("setup_s", setupSeconds, "s", 1),
          Metric("rows_per_s", median(passRowsPerS), "1/s", passes.size),
          Metric("label_quality", quality.sum / quality.size, "f1", quality.size),
          Metric("retained_heap_mb", heaps.last, "MB", 1))
      case Some((tpass, tp)) =>
        val m = Layers.metrics(passes.toSeq, firstPassSpark, heaps.toSeq, tpass, tp, tracer)
        tracer.write(o.workDir.resolve(s"trace-${o.workload}-${o.seed}.tsv"))
        m
    }
    println(f"failed_frac=${failedJobs.toDouble / allJobs.size}%.4f (failed $failedJobs of ${allJobs.size} jobs)")
    println(f"${"metric"}%-28s ${"value"}%16s ${"unit"}%-9s samples")
    (metrics :+ jobP50).foreach(m => println(f"${m.name}%-28s ${m.value}%16.6f ${m.unit}%-9s ${m.samples}"))
    Layers.notes(wl, o.trace).foreach(n => println(s"note: $n"))

    val replayChecks = if (o.trace) 1 else 0
    val attempted = allJobs.size + oracle.size + replayChecks
    val failed = failedJobs + oracle.count(_._2.isDefined) + (if (replayMismatches > 0) 1 else 0)
    spark.stop()
    println(Json.result(problems.isEmpty, attempted, failed, metrics))
  }
}

/** The result line: exactly the keys `correct`, `attempted`, `failed`, `metrics`. */
object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric value $v is not a number")
    else v.toString

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Main.Metric]): String =
    metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
}
