package repro.core

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import repro.graph.{DatasetSpec, Datasets, LocalGraph}

/** The repository benchmark: full decompositions timed end to end, each
  * checked against [[BaselinePeeling]]; with ``--trace 1`` also per-layer
  * probes timed from outside the program. Started by ``perfbench/run.py``,
  * which documents the command line. Declared in package ``repro.core`` so
  * the traced run can time the Spark engine's ``private[core]`` path keys.
  */
object PerfBench {

  sealed trait Engine
  /** Paral: ``LocalHIndexConfig(T, async = false, pruning = false)``. */
  case object Paral extends Engine
  /** Paral+: ``LocalHIndexConfig(T, async = true, pruning = true)``. */
  case object ParalPlus extends Engine
  /** ``BaselinePeeling.trussness`` on one thread. */
  case object Base extends Engine

  /** A workload decomposes ``graphs`` analogues of ``ds``, generated from
    * the run's seed, at hop threshold ``h``.
    */
  final case class Workload(name: String, ds: DatasetSpec, h: Int, engine: Engine, graphs: Int)

  // Each run cycles through several graphs of one dataset, because the
  // number of rounds, and with it the time, differs much from one random
  // graph to the next; a pass over them takes one to three seconds on four
  // cores. BENCHMARK.json records
  // why each workload was chosen. The Spark engine has no workload of its
  // own: one decomposition takes seconds and varies too much between runs
  // to gate on, so every traced run probes it on the tiny input instead.
  val Workloads: Seq[Workload] = Seq(
    Workload("local-sync", Datasets.YT, 3, Paral, graphs = 8),
    Workload("local-pruned", Datasets.GA, 2, ParalPlus, graphs = 2),
    Workload("base-peel", Datasets.AN, 2, Base, graphs = 4),
  )

  /** Input of the self-test (``--tiny``) and of every traced Spark probe. */
  val Tiny: (DatasetSpec, Int) = (Datasets.YT, 1)

  val Threads: Int = Runtime.getRuntime.availableProcessors

  /** Per-decomposition budget; exceeding it counts as a failure. */
  val BudgetMs = 60000L

  final case class Opts(workload: Workload, seed: Option[Long], seconds: Double,
                        traced: Boolean, tiny: Boolean, outDir: java.io.File)

  /** One pass over a workload's graphs: mean wall and CPU seconds and mean
    * peak heap per decomposition, and the number of failed decompositions.
    */
  final case class Pass(wall: Double, cpu: Double, heapMb: Double, failed: Int)

  def seedOf(ds: DatasetSpec, seed: Option[Long]): Long = seed.getOrElse(ds.code.hashCode.toLong)

  /** Generator seeds of a run's graphs; the first is the run's seed itself. */
  def graphSeeds(ds: DatasetSpec, seed: Option[Long], graphs: Int): IndexedSeq[Long] =
    (0 until graphs).map(i => seedOf(ds, seed) + 1000003L * i)

  def localConfig(engine: Engine, threads: Int): LocalHIndexConfig = engine match {
    case ParalPlus => LocalHIndexConfig(threads, async = true, pruning = true)
    case _         => LocalHIndexConfig(threads)
  }

  // ------------------------------------------------------------ measuring

  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNanos(): Long = os.getProcessCpuTime

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def quantile(xs: Seq[Double], q: Double): Double = {
    val s   = xs.sorted
    val pos = q * (s.length - 1)
    val lo  = pos.floor.toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** One decomposition of ``g`` under the deadline; trussness in CSR edge order. */
  def runner(engine: Engine, g: LocalGraph, h: Int): Long => Array[Int] = engine match {
    case Base => dl => BaselinePeeling.trussness(g, h, dl)
    case _ =>
      val cfg = localConfig(engine, Threads)
      dl => LocalHIndexDecomposition.decompose(g, h, cfg.copy(deadlineNanos = dl)).trussness
  }

  /** Pass over the graphs repeatedly for ``secs`` seconds (and at least
    * ``minPasses`` times, within three times that), checking each
    * decomposition against its reference.
    */
  def timedPasses(secs: Double, minPasses: Int, trace: Trace,
                  graphs: IndexedSeq[(Long => Array[Int], Array[Int])]): Seq[Pass] = {
    val passes = mutable.ArrayBuffer.empty[Pass]
    val t0     = System.nanoTime()
    while (seconds(t0) < secs || (passes.length < minPasses && seconds(t0) < 3 * secs)) {
      var wall, cpu, heap = 0.0
      var failed = 0
      trace("pass")(for ((run, ref) <- graphs) {
        System.gc()
        heapPools.foreach(_.resetPeakUsage())
        val c0 = cpuNanos()
        val s0 = System.nanoTime()
        val out =
          try Some(trace("decompose")(run(Budget.deadline(BudgetMs))))
          catch { case NonFatal(e) => e.printStackTrace(); None }
        wall += seconds(s0)
        cpu  += (cpuNanos() - c0) / 1e9
        heap += heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
        if (!out.exists(java.util.Arrays.equals(_, ref))) {
          failed += 1
          if (out.isDefined) System.err.println("perfbench: trussness differs from BaselinePeeling")
        }
      })
      val k = graphs.length
      passes += Pass(wall / k, cpu / k, heap / k, failed)
    }
    passes.toSeq
  }

  // ------------------------------------------------------------ the run

  def run(o: Opts): Int = {
    val w        = o.workload
    val (ds, h)  = if (o.tiny) Tiny else (w.ds, w.h)
    val trace    = new Trace(o.traced)
    val report   = new Report

    // Set-up is repeated and its median reported, so that work moved into
    // set-up shows.
    val seeds     = graphSeeds(ds, o.seed, if (o.tiny) 1 else w.graphs)
    val setupReps = 15
    var gs: IndexedSeq[LocalGraph] = null
    val setupTimes = (1 to setupReps).map { _ =>
      val t0 = System.nanoTime()
      gs = trace("setup")(seeds.map { s =>
        val edges = trace("graph.gen")(ds.gen(s))
        trace("graph.csr")(LocalGraph.fromEdges(edges))
      })
      seconds(t0)
    }
    println(s"perfbench ${w.name}: ${gs.length} ${ds.code} analogue(s), seed ${seeds.head} + 1000003 i, " +
            s"n=${gs.map(_.n).min}..${gs.map(_.n).max} m=${gs.map(_.m).max} h=$h engine=${w.engine} " +
            s"T=$Threads traced=${o.traced}")

    // References cost no metric and are computed side by side. Base is
    // checked against itself, so its references are first checked once
    // against the local engine.
    val refs  = Await.result(Future.traverse(gs)(g => Future(BaselinePeeling.trussness(g, h))), Duration.Inf)
    var refOk = w.engine != Base || gs.indices.forall { i =>
      java.util.Arrays.equals(refs(i), LocalHIndexDecomposition.decompose(gs(i), h, LocalHIndexConfig(Threads)).trussness)
    }
    if (!refOk) System.err.println("perfbench: BaselinePeeling and Paral disagree")

    if (o.traced) {
      trace("probes.local")(LayerProbes.measure(gs.head, h, localConfig(w.engine, Threads), trace, report))
      val (sds, sh) = Tiny
      val edges     = sds.gen(seedOf(sds, o.seed))
      val sg        = LocalGraph.fromEdges(edges)
      val sref      = BaselinePeeling.trussness(sg, sh)
      refOk &= trace("probes.spark")(new SparkProbes(o.outDir, trace).measure(edges, sg, sh, sref, report))
    }

    val graphs = gs.indices.map(i => (runner(w.engine, gs(i), h), refs(i)))
    for (_ <- 1 to math.max(1, 2 / graphs.length); (run, _) <- graphs) { // JIT warm-up
      try run(Budget.deadline(BudgetMs)) catch { case NonFatal(e) => e.printStackTrace() }
    }
    val passes   = timedPasses(o.seconds, 3, trace, graphs)
    System.err.println(passes.map(p => f"${p.wall}%.4f").mkString("perfbench: decompose_s per pass: ", " ", ""))
    val n        = passes.length * graphs.length
    val failed   = passes.map(_.failed).sum
    val walls    = passes.map(_.wall)
    val correct  = refOk && failed == 0
    val spread   = f"median over ${passes.length} passes of ${graphs.length} graphs, " +
                   f"quartiles ${quantile(walls, 0.25)}%.4f..${quantile(walls, 0.75)}%.4f s"
    if (o.traced) {
      report.add("traced.decompose_s", median(walls), "s", s"$spread; compare with the untraced decompose_s")
      report.add("graph.gen_s", median(trace.seconds("graph.gen")), "s", "per graph")
      report.add("graph.csr_s", median(trace.seconds("graph.csr")), "s", "per graph")
      val outFile = new java.io.File(o.outDir, s"trace-${w.name}-${seeds.head}.jsonl")
      trace.write(outFile)
      System.err.println(s"perfbench: spans written to $outFile")
    } else {
      report.add("decompose_s", median(walls), "s", spread)
      report.add("cpu_s", median(passes.map(_.cpu)), "s")
      report.add("heap_peak_mb", median(passes.map(_.heapMb)), "MB", "peak of the heap pools, after a full GC")
      report.add("ok_frac", (n - failed).toDouble / n, "frac", s"failed_frac = ${failed.toDouble / n} ($failed of $n)")
      report.add("setup_s", median(setupTimes), "s", s"median of $setupReps set-ups of all graphs")
    }
    report.print()
    println(report.json(correct, n, failed))
    if (correct) 0 else 1
  }

  def parse(argv: Array[String]): Opts = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(msg)
    val kv   = mutable.Map.empty[String, String]
    var tiny = false
    var i    = 0
    while (i < argv.length) {
      argv(i) match {
        case "--tiny" => tiny = true; i += 1
        case k if k.startsWith("--") && i + 1 < argv.length => kv(k.drop(2)) = argv(i + 1); i += 2
        case other => fail(s"unexpected argument '$other'")
      }
    }
    val name = kv.getOrElse("workload", fail("--workload is required"))
    Opts(
      Workloads.find(_.name == name).getOrElse(
        fail(s"unknown workload '$name'; expected one of ${Workloads.map(_.name).mkString(", ")}")),
      kv.get("seed").map(_.toLong),
      kv.getOrElse("seconds", "10").toDouble,
      kv.getOrElse("trace", "0") == "1",
      tiny,
      new java.io.File(kv.getOrElse("out", fail("--out is required"))),
    )
  }

  def main(argv: Array[String]): Unit = {
    val opts =
      try parse(argv)
      catch { case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2) }
    val code =
      try run(opts)
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

/** Spans recorded around the benchmark's calls into the program's layers.
  * A no-op when tracing is off, so both runs time the same code path.
  */
final class Trace(on: Boolean) {
  private final class Span(val name: String, val parent: Int, val start: Long) { var end = -1L }
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = -1

  def apply[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val span   = new Span(name, open, System.nanoTime())
      val parent = open
      open = spans.length
      spans += span
      try f
      finally { span.end = System.nanoTime(); open = parent }
    }

  /** Durations in seconds of the closed spans called ``name``, in order. */
  def seconds(name: String): Seq[Double] =
    spans.iterator.filter(s => s.name == name && s.end >= 0).map(s => (s.end - s.start) / 1e9).toSeq

  /** One JSON object per span: id, parent id (-1 = none), name, start and
    * end in ``System.nanoTime`` nanoseconds.
    */
  def write(file: java.io.File): Unit = {
    val out = new java.io.PrintWriter(file, "UTF-8")
    try spans.zipWithIndex.foreach { case (s, i) =>
      out.println(s"""{"id": $i, "parent": ${s.parent}, "name": "${s.name}", "start_ns": ${s.start}, "end_ns": ${s.end}}""")
    } finally out.close()
  }
}

/** Metrics by name with unit and a note, printed for people and as the
  * final JSON line.
  */
final class Report {
  private val rows = mutable.ArrayBuffer.empty[(String, Double, String, String)]

  def add(name: String, value: Double, unit: String, note: String = ""): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    rows += ((name, value, unit, note))
  }

  private def num(v: Double, unit: String): String =
    if (unit == "count" && v.isWhole && math.abs(v) < 1e15) v.toLong.toString else java.lang.Double.toString(v)

  def print(): Unit = rows.foreach { case (name, v, unit, note) =>
    println(f"  $name%-24s ${num(v, unit)}%16s $unit%-5s ${if (note.isEmpty) "" else s"[$note]"}")
  }

  def json(correct: Boolean, attempted: Int, failed: Int): String = {
    val metrics = rows.map { case (name, v, unit, _) =>
      s""""$name": {"value": ${num(v, unit)}, "unit": "$unit"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$metrics}}"""
  }
}
