package repro.perfbench

import repro.emdata.Datasets
import repro.emdata.EmDataGen.EmConfig
import repro.lf.LabelingFunctions.Lf
import repro.lf.LfSuite

/** One labeling job: a dataset and an LF suite, from raw record tables to
  * soft labels. `lfs = None` is the dataset's own suite. `simpleEm` runs
  * SIMPLE-EM; otherwise the five matrix-only label models.
  */
final case class Job(id: String, cfg: EmConfig, lfs: Option[Seq[Lf]], simpleEm: Boolean)

/** A workload: `pass(k)` is the k-th pass of labeling jobs. The warm-up runs
  * passes 0, -1, -2, ...; the timed region runs passes 1, 2, ...
  */
final case class Workload(name: String, scale: Double, pass: Int => Seq[Job])

/** The benchmark's workloads. Every pass labels the datasets' own record
  * tables (their configured generator seeds). In `lf_iterate` the workload
  * seed draws the randomized and sampled LF suites, as in Table 11. The
  * inputs of `em_pipeline` are those of Table 3 and do not depend on the
  * seed: SIMPLE-EM's running time follows its EM convergence, which changes
  * with any change of input, and a run has room for only a few jobs. The
  * label models always run with seed 0, as in the experiments.
  */
object Workloads {

  val names: Seq[String] = Seq("em_pipeline", "lf_iterate")

  /** Dataset scales. They keep one pass of each workload to a few seconds
    * on two cores, so that a run holds a warm-up and several timed passes.
    */
  val EmPipelineScale = 0.05
  val LfIterateScale  = 0.05

  /** Mixes the workload seed into a base seed. */
  def mix(seed: Long, base: Long): Long = seed * 1000003L + base

  def apply(name: String, seed: Long): Workload = name match {
    case "em_pipeline" =>
      // DS and AB are two-table (SIMPLE-EM tests which side is duplicate-free
      // and picks the argmax or assignment constraint, then runs EM again);
      // C is single-table (numerical solver).
      Workload(name, EmPipelineScale, _ => Seq(Datasets.DS, Datasets.AB, Datasets.C).map { c =>
        Job(c.name, c, None, simpleEm = true)
      })

    case "lf_iterate" =>
      // Table 11's LF-development loop: the same records of each dataset are
      // prepared again in every pass, each time with the dataset's next suite
      // version, freshly drawn, so that every pass compiles new LF
      // expressions. The datasets are one version apart, so that every pass
      // holds nearly the same mix of suite sizes.
      val versions = Seq(("orig", 1.0), ("RT100", 1.0), ("RT80", 0.8), ("RT60", 0.6), ("RT40", 0.4))
      Workload(name, LfIterateScale, k => Seq(Datasets.DA, Datasets.AG, Datasets.WA, Datasets.M).zipWithIndex.map { case (c, i) =>
        val (label, frac) = versions(Math.floorMod(k + i, versions.size))
        val lfs =
          if (label == "orig") None
          else {
            val rt = LfSuite.randomized(c.name, seed = mix(mix(seed, k), c.name.hashCode))
            Some(if (frac >= 1.0) rt else LfSuite.sample(rt, frac, seed = mix(mix(seed, k), 2L * c.name.hashCode)))
          }
        Job(s"${c.name}/$label#$k", c, lfs, simpleEm = false)
      })

    case other => throw new IllegalArgumentException(s"unknown workload $other; expected one of ${names.mkString(", ")}")
  }
}
