package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.{EdgeList, GraphGen, LocalGraph}
import repro.core.{SparkHIndexDecomposition => S}

/** The distributed DataFrame engine against the local baseline, across
  * both update schedules (Sync / Pruned).
  */
class SparkHIndexSpec extends SparkSpec {

  private def expected(edges: Seq[(Int, Int)], h: Int): Map[Long, Int] = {
    val g = LocalGraph.fromEdges(edges)
    val t = BaselinePeeling.trussness(g, h)
    (0 until g.m).map(e => g.eids(e) -> t(e)).toMap
  }

  private def run(edges: Seq[(Int, Int)], h: Int, mode: S.Mode): (Map[Long, Int], Int) = {
    val df = EdgeList.fromPairs(spark, edges)
    val r  = S.decompose(df, h, mode)
    val m  = r.trussness.collect().map(row => row.getLong(0) -> row.getInt(3)).toMap
    (m, r.rounds)
  }

  test("triangle at h=1 (all modes)") {
    val exp = expected(TestGraphs.triangle, 1)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.triangle, 1, mode)._1 == exp, mode.toString)
  }

  test("two cliques with bridge at h=1 (all modes)") {
    val exp = expected(TestGraphs.twoCliquesBridge, 1)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.twoCliquesBridge, 1, mode)._1 == exp, mode.toString)
  }

  test("bowtie and C6 at h=2 (all modes)") {
    for (edges <- Seq(TestGraphs.bowtie, TestGraphs.c6)) {
      val exp = expected(edges, 2)
      for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
        assert(run(edges, 2, mode)._1 == exp, s"$edges $mode")
    }
  }

  test("fig1-like graph at h=2 across modes") {
    val exp = expected(TestGraphs.fig1Like, 2)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.fig1Like, 2, mode)._1 == exp, mode.toString)
  }

  test("random graphs at h=1..3, sync mode") {
    for ((edges, i) <- TestGraphs.randomPool(3, 14, 510).zipWithIndex; h <- 1 to 3)
      assert(run(edges, h, S.Sync)._1 == expected(edges, h), s"rand$i h=$h")
  }

  test("random graphs at h=2, pruned mode") {
    for ((edges, i) <- TestGraphs.randomPool(3, 14, 530).zipWithIndex)
      assert(run(edges, 2, S.Pruned)._1 == expected(edges, 2), s"rand$i pruned")
  }

  test("sync round count matches the local synchronous engine") {
    for (edges <- Seq(TestGraphs.fig1Like, GraphGen.smallWorld(30, 4, 0.2, 9))) {
      val g = LocalGraph.fromEdges(edges)
      val localRounds = LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig()).rounds
      val syncRounds  = run(edges, 2, S.Sync)._2
      assert(syncRounds == localRounds)
      assert(run(edges, 2, S.Pruned)._2 <= syncRounds)
    }
  }

  test("result carries src/dst columns consistent with eid") {
    val df = EdgeList.fromPairs(spark, TestGraphs.k4)
    val r = S.decompose(df, 1, S.Sync)
    r.trussness.collect().foreach { row =>
      assert(EdgeList.eid(row.getInt(1), row.getInt(2)) == row.getLong(0))
    }
  }

  test("medium graph at h=2 equals local engine end-to-end") {
    val edges = GraphGen.chungLu(60, 140, 2.3, 57)
    val exp = expected(edges, 2)
    assert(run(edges, 2, S.Pruned)._1 == exp)
  }
}
