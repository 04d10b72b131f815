package repro.graph

import repro.{NaiveReference, Oracle, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps

/** Distributed h-hop pair table vs naive BFS and the DuckDB oracle. */
class HopNeighborhoodsSpec extends SparkSpec {

  private def pairsSet(edges: Seq[(Int, Int)], h: Int): Set[(Int, Int, Int)] = {
    val df = EdgeList.fromPairs(spark, edges)
    HopNeighborhoods.hopDistances(df, h).collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2))).toSet
  }

  test("hopDistances h=1 is the oriented edge set at distance 1") {
    val got = pairsSet(TestGraphs.bowtie, 1)
    val expect = TestGraphs.bowtie.flatMap { case (u, v) => Seq((u, v, 1), (v, u, 1)) }.toSet
    assert(got == expect)
  }

  test("hopDistances is symmetric") {
    val got = pairsSet(TestGraphs.twoCliquesBridge, 3)
    assert(got.forall { case (a, b, d) => got.contains((b, a, d)) })
  }

  test("hopDistances reports minimal distances on a path graph") {
    val got = pairsSet(TestGraphs.path(6), 3)
    assert(got.contains((0, 3, 3)))
    assert(got.contains((0, 1, 1)))
    assert(!got.exists { case (a, b, _) => a == 0 && b == 4 }) // dist 4 > h
    assert(got.count { case (a, _, _) => a == 0 } == 3)
  }

  test("hopDistances matches naive BFS on random graphs for h in 1..3") {
    for (seed <- 0 until 4) {
      val edges = GraphGen.erdosRenyi(18, 30, seed + 9)
      val dist  = NaiveReference.distances(edges)
      for (h <- 1 to 3) {
        val expect = dist.collect { case ((a, b), d) if d >= 1 && d <= h => (a, b, d) }.toSet
        assert(pairsSet(edges, h) == expect, s"seed=$seed h=$h")
      }
    }
  }

  test("hopDistances h=2 matches DuckDB SQL oracle") {
    val edges = EdgeList.fromPairs(spark, GraphGen.smallWorld(30, 4, 0.2, 3))
    val got = HopNeighborhoods.hopDistances(edges, 2)
    Oracle.assertEquivalent(
      got,
      """WITH adj AS (
        |  SELECT src AS a, dst AS b FROM edges
        |  UNION SELECT dst, src FROM edges
        |), two AS (
        |  SELECT a1.a AS a, a2.b AS b FROM adj a1 JOIN adj a2 ON a1.b = a2.a
        |  WHERE a1.a <> a2.b
        |), allp AS (
        |  SELECT a, b, 1 AS d FROM adj
        |  UNION ALL SELECT a, b, 2 FROM two
        |)
        |SELECT a, b, MIN(d) AS dist FROM allp GROUP BY a, b""".stripMargin,
      "edges" -> edges)
  }

  test("commonNeighbors at h=1 lists exactly the triangle third-vertices") {
    val df = EdgeList.fromPairs(spark, TestGraphs.bowtie)
    val pairs = HopNeighborhoods.hopDistances(df, 1)
    val got = HopNeighborhoods.commonNeighbors(df, pairs).collect()
      .map(r => ((r.getInt(1), r.getInt(2)), r.getInt(3))).toSet
    assert(got == Set(((0, 1), 2), ((0, 2), 1), ((1, 2), 0), ((2, 3), 4), ((2, 4), 3), ((3, 4), 2)))
  }

  test("commonNeighbors matches LocalGraph on random graphs at h=2") {
    for (seed <- 0 until 3) {
      val edges = GraphGen.chungLu(16, 30, 2.4, seed + 70)
      val df    = EdgeList.fromPairs(spark, edges)
      val pairs = HopNeighborhoods.hopDistances(df, 2)
      val got = HopNeighborhoods.commonNeighbors(df, pairs).collect()
        .groupBy(_.getLong(0)).map { case (eid, rows) => eid -> rows.map(_.getInt(3)).toSet }
      val g = LocalGraph.fromEdges(edges)
      for (e <- 0 until g.m) {
        val expect = g.commonHNeighbors(g.edgeSrc(e), g.edgeDst(e), 2).map(g.label)
        assert(got.getOrElse(g.eids(e), Set.empty[Int]) == expect, s"seed=$seed e=$e")
      }
    }
  }

  test("commonNeighbors excludes the endpoints themselves") {
    val df = EdgeList.fromPairs(spark, TestGraphs.c6)
    val pairs = HopNeighborhoods.hopDistances(df, 2)
    val rows = HopNeighborhoods.commonNeighbors(df, pairs).collect()
    assert(rows.forall(r => r.getInt(3) != r.getInt(1) && r.getInt(3) != r.getInt(2)))
  }
}
