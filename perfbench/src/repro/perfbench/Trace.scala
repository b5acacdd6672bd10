package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.LongAdder

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Span recorder for the traced run. Spans are opened around calls into the
  * program from the benchmark's own code, kept in memory and written out at
  * the end. All spans are opened on the driver thread, so children of a span
  * never overlap and a span's self time is its duration minus the sum of its
  * children's durations.
  */
final class Tracer {
  import Tracer.Span

  private val done  = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0
  private var job = "-"

  def inJob[A](jobId: String)(body: => A): A = { job = jobId; span("job")(body) }

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(id, name, job, parent, t0, System.nanoTime())
      stack = stack.tail
    }
  }

  def spans: Seq[Span] = done.toSeq

  /** Self time per span name, in seconds, summed over all spans. */
  def selfSeconds: Map[String, Double] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    done.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    done.groupMapReduce(_.name)(s => (s.durNs - childNs(s.id)) / 1e9)(_ + _)
  }

  /** Wall time per span name (children included), in seconds. */
  def totalSeconds: Map[String, Double] = done.groupMapReduce(_.name)(_.durNs / 1e9)(_ + _)

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = "id\tname\tjob\tparent\tstart_ns\tend_ns" +:
      done.sortBy(_.id).map(s => s"${s.id}\t${s.name}\t${s.job}\t${s.parent}\t${s.startNs}\t${s.endNs}")
    Files.write(path, lines.asJava)
  }
}

object Tracer {
  final case class Span(id: Int, name: String, job: String, parent: Int, startNs: Long, endNs: Long) {
    def durNs: Long = endNs - startNs
  }
}

/** Counts Spark jobs, tasks, task run time and shuffle bytes written. */
final class SparkCounter extends SparkListener {
  import SparkCounter.Snapshot

  private val jobs, tasks, runMs, shuffleBytes = new LongAdder

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.increment()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.increment()
    Option(e.taskMetrics).foreach { m =>
      runMs.add(m.executorRunTime)
      shuffleBytes.add(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot(): Snapshot = Snapshot(jobs.sum, tasks.sum, runMs.sum, shuffleBytes.sum)
}

object SparkCounter {
  final case class Snapshot(jobs: Long, tasks: Long, taskRunMs: Long, shuffleWriteBytes: Long) {
    def -(o: Snapshot): Snapshot =
      Snapshot(jobs - o.jobs, tasks - o.tasks, taskRunMs - o.taskRunMs, shuffleWriteBytes - o.shuffleWriteBytes)
  }
}

/** Process-wide JVM readings: CPU time, collector time and retained heap. */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  val cores: Int = Runtime.getRuntime.availableProcessors

  def cpuSeconds: Double = os.getProcessCpuTime / 1e9

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Heap in use after a full collection, in MB. */
  def retainedHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
