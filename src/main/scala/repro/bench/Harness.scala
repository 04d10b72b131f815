package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{DatasetSpec, Datasets, LocalGraph}

/** Experiment harness behind ``repro.jobs.Reproduce``: runs each paper
  * variant under a time budget (INF past budget, mirroring the paper's 4-day
  * cutoff), collects times/round counts, renders aligned ASCII tables whose
  * rows match the paper's Table 1 and Figures 4–6 (figures rendered as
  * tables; see EXPERIMENTS.md for the paper-vs-ours diff), and checks each
  * table against the paper's shape.
  */
object Harness {

  /** One measurement: wall time (None = exceeded budget → INF), for the
    * H-index engines the rounds-to-convergence count (the Fig. 6 metric),
    * and whether the run converged. A run that stopped at its round limit
    * short of the fixpoint prints NC in place of a time or round count.
    */
  final case class Measured(millis: Option[Double], rounds: Option[Int], converged: Boolean = true) {
    def timeCell: String   = if (converged) millis.map(ms => f"$ms%.0f").getOrElse("INF") else "NC"
    def roundsCell: String = if (converged) rounds.map(_.toString).getOrElse("-") else "NC"
    /** Wall time of a run that finished within budget and converged. */
    def answerMillis: Option[Double] = millis.filter(_ => converged)
  }

  private def isBudget(t: Throwable, depth: Int = 0): Boolean =
    t != null && depth < 16 &&
      (t.isInstanceOf[Budget.Exceeded] || isBudget(t.getCause, depth + 1))

  /** Time ``f`` under ``budgetMs``; ``f`` receives the absolute deadline and
    * returns an optional round count.
    */
  def run(budgetMs: Long)(f: Long => Option[Int]): Measured =
    runEngine(budgetMs)(dl => (f(dl), true))

  /** [[run]] for an engine that also returns whether it converged. */
  def runEngine(budgetMs: Long)(f: Long => (Option[Int], Boolean)): Measured = {
    val dl = Budget.deadline(budgetMs)
    val t0 = System.nanoTime()
    try {
      val (rounds, converged) = f(dl)
      Measured(Some((System.nanoTime() - t0) / 1e6), rounds, converged)
    } catch {
      case e: Throwable if isBudget(e) => Measured(None, None)
    }
  }

  /** Base: the sequential peeling baseline (Algorithm 1). */
  def runBase(g: LocalGraph, h: Int, budgetMs: Long): Measured =
    run(budgetMs) { dl => BaselinePeeling.trussness(g, h, dl); None }

  /** Local engine variant (Single/Paral/Asyn/Paral+ by config). */
  def runLocal(g: LocalGraph, h: Int, threads: Int, async: Boolean,
               pruning: Boolean, budgetMs: Long): Measured =
    runEngine(budgetMs) { dl =>
      val r = LocalHIndexDecomposition.decompose(
        g, h, LocalHIndexConfig(threads, async, pruning, deadlineNanos = dl))
      (Some(r.rounds), r.converged)
    }

  /** Spark dataflow engine variant. */
  def runSpark(spark: SparkSession, ds: DatasetSpec, h: Int,
               mode: SparkHIndexDecomposition.Mode, budgetMs: Long): Measured =
    runEngine(budgetMs) { dl =>
      val r = SparkHIndexDecomposition.decompose(ds.edgesDf(spark), h, mode, deadlineNanos = dl)
      r.trussness.count() // materialize the full result
      (Some(r.rounds), r.converged)
    }

  // ---------------------------------------------------------------- tables

  /** Evaluation table ``n`` (1 = Table 1; 2, 3, 4 = Figures 4, 5, 6 as
    * tables) at hop thresholds ``hs``: the rendered table and the ways its
    * rows break the paper's shape (empty when the shape holds). ``threads``
    * is the largest thread count; only table 2 uses ``spark``.
    */
  def table(n: Int, hs: Seq[Int], threads: Int, budgetMs: Long,
            spark: => SparkSession): (String, Seq[String]) = n match {
    case 1 =>
      (formatTable("Table 1: dataset statistics (paper vs synthetic analogue)",
                   table1Header, table1Rows), Nil)
    case 2 =>
      val rows = efficiencyRows(Datasets.all, hs, threads, budgetMs, spark)
      (formatTable(s"Figure 4 (as table): efficiency, threads=$threads, budget=${budgetMs}ms",
                   efficiencyHeader, rows), efficiencyViolations(rows))
    case 3 =>
      val tc   = speedupThreads(threads)
      val rows = speedupRows(Seq(Datasets.YT, Datasets.VL, Datasets.GA, Datasets.AM), hs, tc, budgetMs)
      (formatTable(s"Figure 5 (as table): Paral speedup vs Single, budget=${budgetMs}ms",
                   speedupHeader(tc), rows), speedupViolations(rows))
    case 4 =>
      val rows = asyncRows(Datasets.all, hs, threads, budgetMs)
      (formatTable(s"Figure 6 (as table): rounds to convergence, threads=$threads, budget=${budgetMs}ms",
                   asyncHeader, rows), asyncViolations(rows))
  }

  /** Render an aligned ASCII table. */
  def formatTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  /** Table 1 rows: dataset statistics, paper vs generated analogue. */
  def table1Rows: Seq[Seq[String]] =
    Datasets.all.map { ds =>
      val g = ds.localGraph
      Seq(ds.code, ds.name, ds.paperV.toString, ds.paperE.toString,
          g.n.toString, g.m.toString, f"${ds.scale}%.2f")
    }

  val table1Header: Seq[String] =
    Seq("code", "dataset", "paper |V|", "paper |E|", "ours |V|", "ours |E|", "scale")

  /** Spark-engine cells get a larger budget: one BSP round costs far more
    * fixed overhead than a shared-memory sweep, and the Fig. 4 comparison
    * point is the algorithmic shape, not the per-round constant.
    */
  val SparkBudgetFactor = 8L

  /** Figure-4-as-table rows: response time of Base / Paral / Paral+ (local
    * engine, paper's shared-memory setting) and of the Spark dataflow
    * engine's Paral / Paral+, which run on YT at the smallest ``h`` only.
    */
  def efficiencyRows(datasets: Seq[DatasetSpec], hs: Seq[Int], threads: Int,
                     budgetMs: Long, spark: => SparkSession): Seq[Seq[String]] =
    for (ds <- datasets; h <- hs) yield {
      val g      = ds.localGraph
      val base   = runBase(g, h, budgetMs)
      val paral  = runLocal(g, h, threads, async = false, pruning = false, budgetMs)
      val paralP = runLocal(g, h, threads, async = true, pruning = true, budgetMs)
      val (sp, spp) =
        if (ds.code == "YT" && h == hs.min) {
          warmupSpark(spark)
          val b  = budgetMs * SparkBudgetFactor
          val s1 = runSpark(spark, ds, h, SparkHIndexDecomposition.Sync, b)
          val s2 = runSpark(spark, ds, h, SparkHIndexDecomposition.Pruned, b)
          (s1.timeCell, s2.timeCell)
        } else ("-", "-")
      Seq(ds.code, h.toString, base.timeCell, paral.timeCell, paralP.timeCell, sp, spp)
    }

  val efficiencyHeader: Seq[String] =
    Seq("dataset", "h", "Base ms", "Paral ms", "Paral+ ms", "Spark-Paral ms", "Spark-Paral+ ms")

  /** Figure 4's shape check: Paral+ never hits INF (or NC) where Base
    * finished.
    */
  def efficiencyViolations(rows: Seq[Seq[String]]): Seq[String] =
    rows.collect { case r if (r(4) == "INF" || r(4) == "NC") && r(2) != "INF" =>
      s"${r(0)} h=${r(1)}: Paral+ ${r(4)} while Base finished" }

  /** Figure 5's thread counts: 1, 2, 4, 8, 16 up to ``cores``, then ``cores``. */
  def speedupThreads(cores: Int): Seq[Int] =
    (Seq(1, 2, 4, 8, 16).filter(_ <= cores) :+ cores).distinct

  /** Figure-5-as-table rows: Paral time and speedup vs Single (threads=1)
    * across thread counts.
    */
  def speedupRows(datasets: Seq[DatasetSpec], hs: Seq[Int], threadCounts: Seq[Int],
                  budgetMs: Long): Seq[Seq[String]] =
    for (ds <- datasets; h <- hs) yield {
      val g = ds.localGraph
      val runs = threadCounts.map(t => runLocal(g, h, t, async = false, pruning = false, budgetMs))
      val single = runs.head.answerMillis
      val cells = runs.flatMap { run =>
        val speedup = for (s <- single; m <- run.answerMillis) yield s / m
        Seq(run.timeCell, speedup.map(v => f"$v%.2f").getOrElse("-"))
      }
      Seq(ds.code, h.toString) ++ cells
    }

  def speedupHeader(threadCounts: Seq[Int]): Seq[String] =
    Seq("dataset", "h") ++ threadCounts.flatMap(t => Seq(s"t=$t ms", s"t=$t x"))

  /** Figure 5's shape check: some row's speedup at the largest thread count
    * is above 1.
    */
  def speedupViolations(rows: Seq[Seq[String]]): Seq[String] =
    if (rows.exists(r => r.last != "-" && r.last.toDouble > 1.0)) Nil
    else Seq("no configuration showed parallel speedup")

  /** Figure-6-as-table rows: rounds to convergence, Paral vs Asyn, on the
    * local engine (BSP has no shared-memory asynchrony to measure).
    */
  def asyncRows(datasets: Seq[DatasetSpec], hs: Seq[Int], threads: Int,
                budgetMs: Long): Seq[Seq[String]] =
    for (ds <- datasets; h <- hs) yield {
      val g    = ds.localGraph
      val sync = runLocal(g, h, threads, async = false, pruning = false, budgetMs)
      val asyn = runLocal(g, h, threads, async = true, pruning = false, budgetMs)
      Seq(ds.code, h.toString, sync.roundsCell, asyn.roundsCell)
    }

  val asyncHeader: Seq[String] = Seq("dataset", "h", "Paral rounds", "Asyn rounds")

  /** Figure 6's shape check, over the rows where both variants finished
    * and converged: Asyn needs at most one round more than Paral on every
    * row, and fewer on some row.
    */
  def asyncViolations(rows: Seq[Seq[String]]): Seq[String] = {
    val finished = rows.filter(r => r(2).toIntOption.isDefined && r(3).toIntOption.isDefined)
    val worse = finished.collect { case r if r(3).toInt > r(2).toInt + 1 =>
      s"${r(0)} h=${r(1)}: Asyn took ${r(3)} rounds, Paral ${r(2)}" }
    if (finished.exists(r => r(3).toInt < r(2).toInt)) worse
    else worse :+ "Asyn never took fewer rounds than Paral"
  }

  /** The small graph the warm-ups decompose. */
  private def warmupEdges: Seq[(Int, Int)] = repro.graph.GraphGen.smallWorld(200, 6, 0.1, 7)

  /** One small decomposition per local engine to JIT-warm hot paths before
    * measuring (the paper averages 10 runs; we warm up and run once).
    */
  def warmup(): Unit = {
    val g = LocalGraph.fromEdges(warmupEdges)
    BaselinePeeling.trussness(g, 2)
    LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = 4))
    ()
  }

  /** One small decomposition in each Spark mode, so that the first timed
    * Spark cell does not pay for the session's and the JIT's warm-up. Run
    * only before a Spark cell, so tables without one start no session.
    */
  def warmupSpark(spark: SparkSession): Unit = {
    val edges = repro.graph.EdgeList.fromPairs(spark, warmupEdges)
    for (mode <- Seq(SparkHIndexDecomposition.Sync, SparkHIndexDecomposition.Pruned))
      SparkHIndexDecomposition.decompose(edges, 2, mode).trussness.count()
  }
}
