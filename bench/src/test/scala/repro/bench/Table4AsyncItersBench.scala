package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Reproduces **Figure 6 as a table**: rounds to convergence, Paral vs
  * Asyn, on every dataset for each h, on the local engine (the paper's
  * asynchrony is shared-memory; the Spark engine has no counterpart).
  *
  * Paper shape to reproduce: Asyn converges in fewer rounds than Paral,
  * reducing the count by up to ~half.
  */
class Table4AsyncItersBench extends AnyFunSuite {

  test("Figure 6 (as table): rounds, Paral vs Asyn") {
    Harness.warmup()
    val rows = Harness.asyncRows(
      repro.graph.Datasets.all, BenchConfig.hs, BenchConfig.threads,
      BenchConfig.budgetMs)
    println(Harness.formatTable(
      s"Figure 6 (as table): rounds to convergence, budget=${BenchConfig.budgetMs}ms",
      Harness.asyncHeader, rows))

    assert(rows.length == repro.graph.Datasets.all.length * BenchConfig.hs.length)
    // Shape check: async never needs more rounds than sync, and strictly
    // fewer somewhere (the paper's "nearly half" effect).
    val pairs = rows.flatMap { r =>
      (r(2), r(3)) match {
        case ("-", _) | (_, "-") => None
        case (s, a)              => Some((s.toInt, a.toInt))
      }
    }
    assert(pairs.nonEmpty)
    assert(pairs.forall { case (s, a) => a <= s + 1 },
           s"async needed substantially more rounds than sync: $rows")
    assert(pairs.exists { case (s, a) => a < s }, s"async never helped: $rows")
  }
}
