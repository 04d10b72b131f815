package repro.core

import repro.{NaiveReference, Oracle, SparkSpec, TestGraphs}
import repro.graph.{EdgeList, GraphGen, LocalGraph}

/** h-support: the local engine's order-0 step vs naive, distributed vs
  * local, and DuckDB oracle formulations for h = 1 (triangle counting) and
  * h = 2.
  */
class HSupportSpec extends SparkSpec {

  private def localSup(edges: Seq[(Int, Int)], h: Int): Map[(Int, Int), Int] = {
    val g   = LocalGraph.fromEdges(edges)
    val sup = HSupport.local(g, h)
    (0 until g.m).map(e => (g.label(g.edgeSrc(e)), g.label(g.edgeDst(e))) -> sup(e)).toMap
  }

  test("1-support of K5 edges is 3") {
    assert(localSup(TestGraphs.k5, 1).values.toSet == Set(3))
  }

  test("1-support of a path is 0 everywhere") {
    assert(localSup(TestGraphs.path5, 1).values.toSet == Set(0))
  }

  test("2-support of C6 edges is 2") {
    assert(localSup(TestGraphs.c6, 2).values.toSet == Set(2))
  }

  test("2-support of a star: every edge sees all other leaves") {
    // Edge (0, i): leaves j != i are at distance 1 from 0 and 2 from i.
    assert(localSup(TestGraphs.star5, 2).values.toSet == Set(4))
  }

  test("bowtie 1-supports: wing edges 1, no edge spans the wings") {
    val sup = localSup(TestGraphs.bowtie, 1)
    assert(sup((0, 1)) == 1 && sup((3, 4)) == 1 && sup((0, 2)) == 1)
  }

  test("bowtie 2-supports: center edges see both wings") {
    val sup = localSup(TestGraphs.bowtie, 2)
    // Edge (0,1): common 2-neighbors {2,3,4} (3,4 via center 2).
    assert(sup((0, 1)) == 3)
    // Edge (0,2): 1,3,4 all within 2 of both 0 and 2.
    assert(sup((0, 2)) == 3)
  }

  test("local h-support matches naive reference on random graphs, h in 1..3") {
    // The empty graph first; every graph rejects h = 0, as the engine does.
    val graphs = Seq.empty[(Int, Int)] +: (0 until 10).map(seed => TestGraphs.randomPool(1, 24, 400 + seed).head)
    for ((edges, i) <- graphs.zipWithIndex) {
      for (h <- 1 to 3)
        assert(localSup(edges, h) == NaiveReference.hSupport(edges, h), s"graph$i h=$h")
      intercept[IllegalArgumentException](localSup(edges, 0))
    }
  }

  test("h-support is monotone in h") {
    for (seed <- 0 until 6) {
      val edges = GraphGen.chungLu(20, 40, 2.4, 500 + seed)
      val s1 = localSup(edges, 1); val s2 = localSup(edges, 2); val s3 = localSup(edges, 3)
      for (e <- s1.keys) assert(s1(e) <= s2(e) && s2(e) <= s3(e))
    }
  }

  test("distributed h-support equals local on random graphs, h in 1..3") {
    for (seed <- 0 until 3) {
      val edges = GraphGen.erdosRenyi(20, 35, 600 + seed)
      val df    = EdgeList.fromPairs(spark, edges)
      for (h <- 1 to 3) {
        val got = HSupport.distributed(df, h).collect()
          .map(r => r.getLong(0) -> r.getInt(1)).toMap
        val g   = LocalGraph.fromEdges(edges)
        val sup = HSupport.local(g, h)
        assert((0 until g.m).forall(e => got(g.eids(e)) == sup(e)), s"seed=$seed h=$h")
        assert(got.size == g.m)
      }
    }
  }

  test("distributed 1-support matches DuckDB triangle-count oracle") {
    val edges = EdgeList.fromPairs(spark, GraphGen.smallWorld(24, 4, 0.3, 8))
    Oracle.assertEquivalent(
      HSupport.distributed(edges, 1),
      """WITH adj AS (
        |  SELECT src AS a, dst AS b FROM edges UNION SELECT dst, src FROM edges
        |), tri AS (
        |  SELECT e.eid AS eid, COUNT(*) AS c
        |  FROM edges e
        |  JOIN adj a1 ON a1.a = e.src
        |  JOIN adj a2 ON a2.a = e.dst AND a2.b = a1.b
        |  WHERE a1.b <> e.dst AND a1.b <> e.src
        |  GROUP BY e.eid
        |)
        |SELECT e.eid AS eid, CAST(COALESCE(t.c, 0) AS INT) AS sup
        |FROM edges e LEFT JOIN tri t ON e.eid = t.eid""".stripMargin,
      "edges" -> edges)
  }

  test("distributed 2-support matches DuckDB 2-hop oracle") {
    val edges = EdgeList.fromPairs(spark, GraphGen.erdosRenyi(22, 40, 12))
    Oracle.assertEquivalent(
      HSupport.distributed(edges, 2),
      """WITH adj AS (
        |  SELECT src AS a, dst AS b FROM edges UNION SELECT dst, src FROM edges
        |), two AS (
        |  SELECT a1.a AS a, a2.b AS b FROM adj a1 JOIN adj a2 ON a1.b = a2.a
        |  WHERE a1.a <> a2.b
        |), pairs AS (
        |  SELECT a, b FROM adj UNION SELECT a, b FROM two
        |), cn AS (
        |  SELECT e.eid AS eid, COUNT(*) AS c
        |  FROM edges e
        |  JOIN pairs pu ON pu.a = e.src
        |  JOIN pairs pv ON pv.a = e.dst AND pv.b = pu.b
        |  WHERE pu.b <> e.src AND pu.b <> e.dst
        |  GROUP BY e.eid
        |)
        |SELECT e.eid AS eid, CAST(COALESCE(cn.c, 0) AS INT) AS sup
        |FROM edges e LEFT JOIN cn ON e.eid = cn.eid""".stripMargin,
      "edges" -> edges)
  }

  test("edges in different components have zero mutual influence") {
    val sup = localSup(TestGraphs.triPlusEdge, 3)
    assert(sup((10, 11)) == 0)
    assert(sup((0, 1)) == 1)
  }
}
