package repro.jobs

import repro.bench.Harness
import repro.graph.Datasets

/** Reproduces the paper's Figure 6 as a table: rounds to convergence of
  * Paral vs Asyn on all datasets, on the local engine.
  *
  * Usage: ``spark-submit --class repro.jobs.Table4AsyncIters <jar> [h...]``
  * (default h = 2 3).
  */
object Table4AsyncIters {
  def main(args: Array[String]): Unit = {
    val hs = if (args.nonEmpty) args.map(_.toInt).toSeq else Seq(2, 3)
    Harness.warmup()
    val rows = Harness.asyncRows(
      Datasets.all, hs, threads = Runtime.getRuntime.availableProcessors(),
      budgetMs = JobSession.budgetMs)
    println(Harness.formatTable("Figure 6 (as table): rounds — Paral vs Asyn",
      Harness.asyncHeader, rows))
  }
}
