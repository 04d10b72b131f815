package repro.core

import java.util.Properties
import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.graph.{EdgeList, HopNeighborhoods, LocalGraph}

/** The traced run's probes of the Spark layer: session start,
  * ``HopNeighborhoods``, ``HSupport.distributed``, the engine's path keys
  * and full Sync decompositions. Each probe runs under its own job group,
  * set from the benchmark thread, so a listener can total the jobs, stages,
  * tasks and shuffle bytes of that call alone.
  */
final class SparkProbes(outDir: java.io.File, trace: Trace) {
  private var session: SparkSession = _
  private val listener = new GroupListener
  private var drains = 0

  /** Start a ``local[T]`` session whose scratch files stay under ``outDir``.
    * The session-wide shuffle width equals the one the engine sets for its
    * own queries, so probes outside it plan alike.
    */
  private def start(): Unit = {
    session = trace("spark.session") {
      SparkSession.builder
        .master(s"local[${PerfBench.Threads}]")
        .appName("perfbench")
        .config("spark.ui.enabled", value = false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.sql.autoBroadcastJoinThreshold", -1L)
        .config("spark.sql.shuffle.partitions", math.max(4L, PerfBench.Threads / 2L))
        .config("spark.local.dir", new java.io.File(outDir, "spark-local").getPath)
        .config("spark.sql.warehouse.dir", new java.io.File(outDir, "spark-warehouse").getPath)
        .getOrCreate()
    }
    session.sparkContext.addSparkListener(listener)
  }

  /** Run ``f`` in job group ``name`` inside a span of that name, then wait
    * until the listener has seen every event of the call.
    */
  private def tagged[A](name: String)(f: => A): A = {
    val sc = session.sparkContext
    val a = trace(name) {
      sc.setJobGroup(name, name)
      try f finally sc.clearJobGroup()
    }
    drain()
    a
  }

  /** Events reach listeners asynchronously but in order: once a marker job
    * submitted after the call has ended, all of the call's events are in.
    */
  private def drain(): Unit = {
    val sc = session.sparkContext
    val id = s"perfbench.drain.$drains"
    drains += 1
    sc.setJobGroup(id, id)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    listener.awaitJobsEnded(id, 60000L)
  }

  /** Probe the Spark layer on ``edges`` (whose CSR form is ``g``) at hop
    * threshold ``h``, then stop the session; returns whether the probe's
    * decomposition matched ``ref``.
    */
  def measure(edges: Seq[(Int, Int)], g: LocalGraph, h: Int, ref: Array[Int], r: Report): Boolean =
    try { start(); probe(edges, g, h, ref, r) }
    finally if (session != null) session.stop()

  private def probe(edges: Seq[(Int, Int)], g: LocalGraph, h: Int, ref: Array[Int], r: Report): Boolean = {
    val df    = EdgeList.fromPairs(session, edges).cache()
    val index = g.eids.zipWithIndex.toMap
    // Trussness aligned with g's edges; null unless each edge has one row.
    def decompose(maxRounds: Int): (Array[Int], Int) = {
      val res = SparkHIndexDecomposition.decompose(df, h, SparkHIndexDecomposition.Sync, maxRounds)
      val out = Array.fill(g.m)(-1)
      var ok  = true
      for (row <- res.trussness.select("eid", "trussness").collect()) {
        val e = index.getOrElse(row.getLong(0), -1)
        if (e < 0 || out(e) >= 0) ok = false else out(e) = row.getInt(1)
      }
      (if (ok && !out.contains(-1)) out else null, res.rounds)
    }
    decompose(Int.MaxValue) // warm-up, untagged: the probes below then run warm

    val e0 = df.select("src", "dst", "eid").localCheckpoint().toDF("src", "dst", "eid")
    val (pairs, pairRows) = tagged("spark.pairs") {
      val p = HopNeighborhoods.hopDistances(e0, h).localCheckpoint().toDF("a", "b", "dist")
      (p, p.count())
    }
    val commonRows = tagged("spark.common") {
      HopNeighborhoods.commonNeighbors(e0, pairs).localCheckpoint().count()
    }
    val hdf = tagged("spark.support") {
      e0.join(HSupport.distributed(e0, h, Some(pairs)), "eid")
        .select(col("eid"), col("src"), col("dst"), col("sup") as "hval")
        .localCheckpoint().toDF("eid", "src", "dst", "hval")
    }
    val adj = EdgeList.oriented(e0).localCheckpoint().toDF("a", "b", "eid")
    val pathRows = tagged("spark.pathkeys") { SparkHIndexDecomposition.pathKeys(hdf, adj, h).count() }

    tagged("spark.decompose.round1")(decompose(1))
    val (truss, rounds) = tagged("spark.decompose")(decompose(Int.MaxValue))
    val ok = java.util.Arrays.equals(truss, ref)
    if (!ok) System.err.println("perfbench: Spark probe trussness differs from BaselinePeeling")

    for (group <- Seq("spark.pairs", "spark.common", "spark.support", "spark.pathkeys",
                      "spark.decompose.round1", "spark.decompose")) {
      val t = listener.totals(group)
      System.err.println(f"perfbench: job group $group%-22s jobs ${t.jobs}%4d stages ${t.stages}%4d " +
                         f"tasks ${t.tasks}%5d shuffle read/write ${t.shuffleRead / 1048576.0}%.2f/" +
                         f"${t.shuffleWrite / 1048576.0}%.2f MB task time ${t.taskRunMs / 1000.0}%.2f s")
    }

    def s(name: String) = trace.seconds(name).last
    val decomposeS = s("spark.decompose")
    val round1     = s("spark.decompose.round1")
    val t          = listener.totals("spark.decompose")
    r.add("spark.session_s", trace.seconds("spark.session").head, "s", "cold start")
    r.add("spark.pairs_s", s("spark.pairs"), "s", "hopDistances + localCheckpoint")
    r.add("spark.pairs_rows", pairRows.toDouble, "count")
    r.add("spark.common_s", s("spark.common"), "s", "commonNeighbors")
    r.add("spark.common_rows", commonRows.toDouble, "count")
    r.add("spark.support_s", s("spark.support"), "s", "HSupport.distributed joined onto edges")
    r.add("spark.pathkeys_s", s("spark.pathkeys"), "s")
    r.add("spark.pathkeys_rows", pathRows.toDouble, "count")
    r.add("spark.rounds", rounds.toDouble, "count")
    r.add("spark.round_mean_s", if (rounds > 1) (decomposeS - round1) / (rounds - 1) else round1, "s",
          "computed: (full - maxRounds = 1) / (rounds - 1)")
    r.add("spark.decompose_s", decomposeS, "s", "one warm Sync decomposition, collected")
    r.add("spark.jobs", t.jobs.toDouble, "count")
    r.add("spark.stages", t.stages.toDouble, "count")
    r.add("spark.tasks", t.tasks.toDouble, "count")
    r.add("spark.shuffle_read_mb", t.shuffleRead / 1048576.0, "MB")
    r.add("spark.shuffle_write_mb", t.shuffleWrite / 1048576.0, "MB")
    r.add("spark.task_run_s", t.taskRunMs / 1000.0, "s", "summed over tasks")
    r.add("spark.driver_gap_s", math.max(0.0, decomposeS - t.busySeconds), "s",
          "decomposition wall time with no job running")
    ok
  }
}

/** Totals of jobs, stages, tasks and shuffle bytes per job group. */
final class GroupListener extends SparkListener {
  final class Totals {
    var jobs, stages, tasks, shuffleRead, shuffleWrite, taskRunMs = 0L
    val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]

    /** Seconds covered by at least one job. */
    def busySeconds: Double = {
      var busy = 0L; var reach = Long.MinValue
      for ((s, e) <- jobSpans.sorted) {
        if (e > reach) { busy += e - math.max(s, reach); reach = e }
      }
      busy / 1000.0
    }
  }

  private val groups     = mutable.Map.empty[String, Totals]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup   = mutable.Map.empty[Int, (String, Long)]

  private def of(group: String) = groups.getOrElseUpdate(group, new Totals)

  private def groupOf(p: Properties): String =
    Option(p).flatMap(x => Option(x.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    of(g).jobs += 1
    jobGroup(e.jobId) = (g, e.time)
    // A stage listed again by a later job is skipped there; it belongs to
    // the job that first listed it.
    e.stageIds.foreach(s => if (!stageGroup.contains(s)) stageGroup(s) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.remove(e.jobId).foreach { case (g, t0) => of(g).jobSpans += ((t0, e.time)) }
    notifyAll()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    of(stageGroup.getOrElse(e.stageInfo.stageId, "")).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = of(stageGroup.getOrElse(e.stageId, ""))
    t.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      t.taskRunMs    += m.executorRunTime
      t.shuffleRead  += m.shuffleReadMetrics.totalBytesRead
      t.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def totals(group: String): Totals = synchronized(of(group))

  def awaitJobsEnded(group: String, timeoutMs: Long): Unit = synchronized {
    val deadline = System.currentTimeMillis() + timeoutMs
    def done = groups.get(group).exists(t => t.jobs > 0 && t.jobSpans.length == t.jobs)
    while (!done) {
      val left = deadline - System.currentTimeMillis()
      if (left <= 0) throw new IllegalStateException(s"Spark listener saw no end of job group $group")
      wait(left)
    }
  }
}
