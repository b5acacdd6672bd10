package repro.perfbench

import repro.perfbench.Main.{Metric, PassResult}

/** Per-layer metrics of the traced run. The traced pass re-runs timed pass 1
  * with spans and counts. Spark counters and `prepare.busy_s` come from the
  * untraced pass 1; the JVM readings are per untraced timed pass.
  */
object Layers {

  def metrics(passes: Seq[PassResult], firstPassSpark: SparkCounter.Snapshot,
              heaps: Seq[Double], tpass: PassResult, tp: TracedPipeline, tracer: Tracer): Seq[Metric] = {
    val n = passes.size
    val self = tracer.selfSeconds.withDefaultValue(0.0)
    val total = tracer.totalSeconds.withDefaultValue(0.0)
    val c = tp.counts
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    def perPass(xs: Seq[Double]) = xs.sum / n
    def t(name: String, v: Double) = Metric(name, v, "s", 1)
    def k(name: String, v: Double, unit: String = "count") = Metric(name, v, unit, 1)

    val prepareBusy = passes.head.prepareSeconds
    val untracedPass = passes.head.seconds
    val wall = passes.map(_.seconds).sum
    val cpu = passes.map(_.cpuSeconds).sum

    Seq(
      t("blocking.busy_s", self("blocking")),
      k("blocking.candidates", c("blocking.candidates")),
      k("blocking.recall", ratio(c("blocking.recall_sum"), c("blocking.jobs")), "fraction"),
      k("blocking.match_frac", ratio(c("blocking.matches"), c("blocking.candidates")), "fraction"),
      t("lf.busy_s", self("lf")),
      k("lf.vote_cells", c("lf.vote_cells")),
      k("lf.abstain_frac", ratio(c("lf.abstains"), c("lf.vote_cells")), "fraction"),
      t("features.busy_s", self("features")),
      t("datagen.busy_s", self("datagen")),
      t("prepare.busy_s", prepareBusy),
      t("prepare.split_gap_s",
        if (c("blocking.jobs") == 0) 0.0
        else prepareBusy - self("datagen") - self("blocking") - self("lf") - self("features")),
      k("spark.jobs", firstPassSpark.jobs.toDouble),
      k("spark.tasks", firstPassSpark.tasks.toDouble),
      t("spark.task_run_s", firstPassSpark.taskRunMs / 1e3),
      k("spark.shuffle_write_bytes", firstPassSpark.shuffleWriteBytes.toDouble, "B"),
      k("matrix.rows", c("matrix.rows")),
      k("matrix.distinct_rows", c("matrix.distinct_rows")),
      k("matrix.distinct_frac", ratio(c("matrix.distinct_rows"), c("matrix.rows")), "fraction"),
      t("simple.busy_s", self("simple")),
      k("simple.runs", c("simple.runs")),
      k("simple.estep_calls", c("simple.estep_calls")),
      t("smote.busy_s", self("smote")),
      k("smote.rows_out", c("smote.rows_out")),
      t("crossval.busy_s", self("crossval")),
      k("crossval.forests", c("crossval.forests")),
      t("rf.fit_s", self("rf.fit")),
      t("rf.predict_s", self("rf.predict")),
      t("transitivity.busy_s", self("transitivity")),
      k("transitivity.calls", c("transitivity.calls")),
      k("transitivity.flip_frac", ratio(c("transitivity.flips"), c("transitivity.labels")), "fraction"),
      t("dupfree.busy_s", self("dupfree")),
      t("baselines.busy_s", total("baselines")),
      t("model.MV.busy_s", self("model.MV")),
      t("model.DS.busy_s", self("model.DS")),
      t("model.EBCC.busy_s", self("model.EBCC")),
      t("model.FS.busy_s", self("model.FS")),
      t("model.SN.busy_s", self("model.SN")),
      Metric("jvm.cpu_s", cpu / n, "s", n),
      Metric("jvm.cpu_util", ratio(cpu, wall * Jvm.cores), "fraction", n),
      Metric("jvm.gc_s", perPass(passes.map(_.gcSeconds)), "s", n),
      Metric("jvm.heap_drift_mb", heaps.last - heaps.head, "MB", n),
      t("pass.untraced_s", untracedPass),
      t("pass.traced_s", tpass.seconds),
      t("trace.overhead_s", tpass.seconds - untracedPass),
      t("trace.mstep_replay_s", total("mstep")),
      k("trace.spans", tracer.spans.size),
    )
  }

  /** Why some per-layer metrics read 0 or are derived rather than measured. */
  def notes(wl: Workload, trace: Boolean): Seq[String] = if (!trace) Nil else {
    val common = Seq(
      "the traced pass re-runs timed pass 1; spark.*, prepare.busy_s and pass.untraced_s are from the untraced " +
        "pass 1, jvm.* are per untraced timed pass, every other metric is from the traced pass",
      "the traced pass caches and counts each Spark layer to split it; prepare.split_gap_s is untraced " +
        "prepare.busy_s minus traced datagen + blocking + lf + features",
      "trace.overhead_s is traced minus untraced pass time; it includes trace.mstep_replay_s, the replay of every M-step",
      "crossval.forests is derived as grid size x folds per M-step: CrossVal fits its forests internally and " +
        "skips folds whose training labels have one class, which cannot be seen from outside",
      "simple.estep_calls counts calls of the constraint hook, one per E-step plus one on the " +
        "majority-vote initialisation of each SIMPLE run",
      s"jvm.cpu_util divides process CPU time by wall time x ${Jvm.cores} available processors",
    )
    val byWorkload = wl.name match {
      case "em_pipeline" => Seq("em_pipeline runs no matrix-only baselines: baselines.* and model.* read 0")
      case _             => Seq("lf_iterate never runs SIMPLE: simple.*, smote.*, crossval.*, rf.*, transitivity.* and dupfree.* read 0")
    }
    common ++ byWorkload
  }
}
