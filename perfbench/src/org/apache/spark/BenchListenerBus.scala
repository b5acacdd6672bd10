package org.apache.spark

/** Lets the benchmark wait until Spark has delivered every listener event
  * posted so far, so per-pass Spark counters are exact. The listener bus is
  * package-private to Spark.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
