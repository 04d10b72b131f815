package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Datasets
import repro.jobs.Reproduce

/** Harness plumbing: measurement, budget handling, table formatting, the
  * paper-shape checks, and the ``Reproduce`` command line.
  */
class HarnessSpec extends AnyFunSuite {

  test("run measures time and propagates rounds") {
    val m = Harness.run(10000) { _ => Some(7) }
    assert(m.rounds.contains(7))
    assert(m.millis.exists(_ >= 0))
    assert(m.roundsCell == "7")
  }

  test("run reports INF on budget exhaustion") {
    val m = Harness.run(1) { dl =>
      Thread.sleep(5)
      repro.core.Budget.check(dl)
      None
    }
    assert(m.millis.isEmpty)
    assert(m.timeCell == "INF")
  }

  test("run unwraps nested budget exceptions") {
    val m = Harness.run(1) { _ =>
      throw new RuntimeException(new repro.core.Budget.Exceeded)
    }
    assert(m.millis.isEmpty)
  }

  test("a run that did not converge prints NC and leaves the shape checks") {
    val m = Harness.runEngine(10000) { _ => (Some(1), false) }
    assert(m.millis.isDefined && !m.converged)
    assert(m.timeCell == "NC" && m.roundsCell == "NC" && m.answerMillis.isEmpty)
    assert(Harness.run(10000) { _ => Some(3) }.converged)
    val rows = Seq(Seq("YT", "2", "5", "4"), Seq("VL", "2", "NC", "9"))
    assert(Harness.asyncViolations(rows).isEmpty)
    assert(Harness.efficiencyViolations(Seq(Seq("GA", "3", "800", "90", "NC", "-", "-"))) ==
      Seq("GA h=3: Paral+ NC while Base finished"))
  }

  test("non-budget exceptions propagate") {
    intercept[IllegalStateException] {
      Harness.run(1000) { _ => throw new IllegalStateException("boom") }
    }
  }

  test("formatTable aligns columns and includes every row") {
    val s = Harness.formatTable("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = s.linesIterator.toSeq
    assert(lines.head == "== T ==")
    assert(lines.length == 5)
    assert(lines.drop(1).map(_.length).distinct.length == 1, "aligned widths")
  }

  test("table1Rows covers all six datasets with paper numbers") {
    val rows = Harness.table1Rows
    assert(rows.map(_.head) == Seq("YT", "VL", "SC", "GA", "AM", "AN"))
    val yt = rows.head
    assert(yt(2) == "1870" && yt(3) == "2227")
    assert(rows.forall(_.length == Harness.table1Header.length))
    assert(rows.forall(r => r(4).toInt > 0 && r(5).toInt > 0))
  }

  test("runBase and runLocal produce consistent timings on a tiny dataset") {
    val g = repro.graph.LocalGraph.fromEdges(repro.TestGraphs.fig1Like)
    val base = Harness.runBase(g, 2, 30000)
    val par  = Harness.runLocal(g, 2, threads = 2, async = false, pruning = false, 30000)
    assert(base.millis.isDefined && par.millis.isDefined)
    assert(par.rounds.exists(_ >= 1))
  }

  test("speedup header matches row arity") {
    val tc = Seq(1, 2, 4)
    val rows = Harness.speedupRows(Seq(Datasets.YT), Seq(2), tc, 60000)
    assert(rows.forall(_.length == Harness.speedupHeader(tc).length))
  }

  test("speedup thread counts are capped at the core count and end with it") {
    assert(Harness.speedupThreads(4) == Seq(1, 2, 4))
    assert(Harness.speedupThreads(6) == Seq(1, 2, 4, 6))
    assert(Harness.speedupThreads(32) == Seq(1, 2, 4, 8, 16, 32))
  }

  test("Figure 4 shape: Paral+ is never INF where Base finished") {
    val ok = Seq(Seq("YT", "2", "50", "9", "4", "-", "-"), Seq("AM", "3", "INF", "INF", "INF", "-", "-"))
    assert(Harness.efficiencyViolations(ok).isEmpty)
    val bad = ok :+ Seq("GA", "3", "800", "90", "INF", "-", "-")
    assert(Harness.efficiencyViolations(bad) == Seq("GA h=3: Paral+ INF while Base finished"))
  }

  test("Figure 5 shape: some max-thread speedup is above 1") {
    val ok = Seq(Seq("YT", "2", "10", "1.00", "9", "1.11"), Seq("AM", "3", "INF", "-", "INF", "-"))
    assert(Harness.speedupViolations(ok).isEmpty)
    val bad = Seq(Seq("YT", "2", "10", "1.00", "10", "1.00"), Seq("AM", "3", "INF", "-", "INF", "-"))
    assert(Harness.speedupViolations(bad).nonEmpty)
  }

  test("Figure 6 shape: Asyn within one round of Paral everywhere, fewer somewhere") {
    val ok = Seq(Seq("YT", "2", "5", "4"), Seq("VL", "2", "8", "9"), Seq("AM", "3", "-", "-"))
    assert(Harness.asyncViolations(ok).isEmpty)
    val tooMany = ok :+ Seq("SC", "2", "6", "8")
    assert(Harness.asyncViolations(tooMany) == Seq("SC h=2: Asyn took 8 rounds, Paral 6"))
    val neverFewer = Seq(Seq("YT", "2", "5", "5"), Seq("VL", "2", "8", "9"))
    assert(Harness.asyncViolations(neverFewer).nonEmpty)
    assert(Harness.asyncViolations(Seq(Seq("AM", "3", "-", "-"))).nonEmpty)
  }

  test("Reproduce parses tables and h, defaulting h to 2 3") {
    assert(Reproduce.parse(Seq("all")) == Right((1 to 4, Seq(2, 3))))
    assert(Reproduce.parse(Seq("3", "1", "4")) == Right((Seq(3), Seq(1, 4))))
  }

  test("Reproduce rejects a missing or unknown table and h < 1 with a message") {
    for (bad <- Seq(Seq(), Seq("5"), Seq("0"), Seq("table2"), Seq("2", "0"), Seq("2", "3", "-1"), Seq("2", "x")))
      assert(Reproduce.parse(bad).left.exists(_.nonEmpty), bad)
    assert(Reproduce.parse(Seq("5")).left.exists(_.contains("unknown table '5'")))
    assert(Reproduce.parse(Seq("2", "0")).left.exists(_.contains(">= 1")))
  }

  test("Reproduce takes REPRO_BUDGET_MS as a positive integer, 90000 when unset") {
    assert(Reproduce.parseBudget(None) == Right(90000L))
    assert(Reproduce.parseBudget(Some("2500")) == Right(2500L))
    for (bad <- Seq("abc", "", "0", "-5", "1.5", "9999999999999999999"))
      assert(Reproduce.parseBudget(Some(bad)).left.exists(_.contains(s"REPRO_BUDGET_MS must be an integer >= 1, got '$bad'")), bad)
  }
}
