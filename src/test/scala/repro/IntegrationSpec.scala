package repro

import repro.core._
import repro.graph.{Datasets, GraphGen, LocalGraph}

/** End-to-end pipeline checks on (reduced) dataset analogues: every engine
  * and variant agrees; structural sanity of the produced decompositions.
  */
class IntegrationSpec extends SparkSpec {

  test("YT analogue at h=2: all local variants agree with the baseline") {
    val g = Datasets.YT.localGraph
    val expect = BaselinePeeling.trussness(g, 2).toSeq
    for (cfg <- Seq(
        LocalHIndexConfig(threads = 1),
        LocalHIndexConfig(threads = 8),
        LocalHIndexConfig(threads = 8, async = true),
        LocalHIndexConfig(threads = 8, async = true, pruning = true))) {
      assert(LocalHIndexDecomposition.decompose(g, 2, cfg).trussness.toSeq == expect)
    }
  }

  test("YT analogue at h=2: Spark engine agrees with the baseline") {
    val g = Datasets.YT.localGraph
    val base = BaselinePeeling.trussness(g, 2)
    val expect = (0 until g.m).map(e => g.eids(e) -> base(e)).toMap
    val r = SparkHIndexDecomposition.decompose(
      Datasets.YT.edgesDf(spark), 2, SparkHIndexDecomposition.Pruned)
    val got = r.trussness.collect().map(row => row.getLong(0) -> row.getInt(3)).toMap
    assert(got == expect)
  }

  test("scaled community graph at h=3: engines agree") {
    val edges = TestGraphs.plantedCommunities(3, 10, 0.5, 8, 123)
    val g = LocalGraph.fromEdges(edges)
    val base = BaselinePeeling.trussness(g, 3).toSeq
    val par  = LocalHIndexDecomposition.decompose(
      g, 3, LocalHIndexConfig(threads = 8, async = true, pruning = true))
    assert(par.trussness.toSeq == base)
  }

  test("decomposition hierarchy: higher h reveals deeper trusses (paper's motivation)") {
    // The paper's Example 1: the 1-hop model flattens hierarchy that the
    // 2-hop model exposes. On a community graph, max 2-trussness must
    // strictly exceed max 1-trussness and spread over more distinct levels.
    val g = LocalGraph.fromEdges(TestGraphs.plantedCommunities(2, 8, 0.75, 3, 321))
    val t1 = BaselinePeeling.trussness(g, 1)
    val t2 = BaselinePeeling.trussness(g, 2)
    assert(t2.max > t1.max)
    for (e <- 0 until g.m) assert(t2(e) >= t1(e))
  }

  test("dataset analogues have non-trivial truss structure at h=2") {
    // The evaluation is only meaningful if the analogues are not all
    // trussness-2: check a spread of at least 3 distinct levels on AN
    // (high clustering) and at least 2 on YT.
    val tAN = LocalHIndexDecomposition.decompose(
      Datasets.AN.localGraph, 1, LocalHIndexConfig(threads = 16)).trussness
    assert(tAN.distinct.length >= 2, s"AN levels: ${tAN.distinct.toSeq.sorted}")
    val tYT = LocalHIndexDecomposition.decompose(
      Datasets.YT.localGraph, 2, LocalHIndexConfig(threads = 16)).trussness
    assert(tYT.distinct.length >= 2, s"YT levels: ${tYT.distinct.toSeq.sorted}")
  }

  test("trussness values survive a round trip through the Spark result schema") {
    val edges = TestGraphs.fig1Like
    val g = LocalGraph.fromEdges(edges)
    val local = LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = 4))
    val sparkR = SparkHIndexDecomposition.decompose(
      repro.graph.EdgeList.fromPairs(spark, edges), 2)
    val got = sparkR.trussness.collect().map(r => r.getLong(0) -> r.getInt(3)).toMap
    for (e <- 0 until g.m) assert(got(g.eids(e)) == local.trussness(e))
  }
}
