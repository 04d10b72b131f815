package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}

/** Algorithm 1 (sequential peeling) vs the definition oracle. */
class BaselinePeelingSpec extends AnyFunSuite {

  private def check(edges: Seq[(Int, Int)], h: Int, label: String): Unit = {
    val g = LocalGraph.fromEdges(edges)
    assert(BaselinePeeling.trussness(g, h).toSeq == BruteForce.trussness(g, h).toSeq,
           s"$label h=$h")
  }

  test("hand graphs at h=1") {
    for ((e, i) <- Seq(TestGraphs.triangle, TestGraphs.k5, TestGraphs.bowtie,
                       TestGraphs.k4Pendant, TestGraphs.twoCliquesBridge,
                       TestGraphs.path5, TestGraphs.c6).zipWithIndex)
      check(e, 1, s"hand$i")
  }

  test("hand graphs at h=2") {
    for ((e, i) <- Seq(TestGraphs.triangle, TestGraphs.k4, TestGraphs.bowtie,
                       TestGraphs.k4Pendant, TestGraphs.twoCliquesBridge,
                       TestGraphs.star5, TestGraphs.c6, TestGraphs.fig1Like).zipWithIndex)
      check(e, 2, s"hand$i")
  }

  test("hand graphs at h=3") {
    for ((e, i) <- Seq(TestGraphs.bowtie, TestGraphs.twoCliquesBridge,
                       TestGraphs.c6, TestGraphs.fig1Like).zipWithIndex)
      check(e, 3, s"hand$i")
  }

  test("random pool at h=1") {
    for ((e, i) <- TestGraphs.randomPool(15, 24, 100).zipWithIndex) check(e, 1, s"rand$i")
  }

  test("random pool at h=2") {
    for ((e, i) <- TestGraphs.randomPool(15, 20, 200).zipWithIndex) check(e, 2, s"rand$i")
  }

  test("random pool at h=3") {
    for ((e, i) <- TestGraphs.randomPool(8, 16, 300).zipWithIndex) check(e, 3, s"rand$i")
  }

  test("disconnected graphs at h=2") {
    check(TestGraphs.triPlusEdge, 2, "disconnected")
    check(TestGraphs.clique(4) ++ TestGraphs.clique(5, offset = 10), 2, "two-cliques")
  }

  test("trussness is monotone in h") {
    for (seed <- 0 until 5) {
      val g = LocalGraph.fromEdges(GraphGen.chungLu(18, 36, 2.4, 700 + seed))
      val t1 = BaselinePeeling.trussness(g, 1)
      val t2 = BaselinePeeling.trussness(g, 2)
      val t3 = BaselinePeeling.trussness(g, 3)
      for (e <- 0 until g.m) assert(t1(e) <= t2(e) && t2(e) <= t3(e), s"seed=$seed e=$e")
    }
  }

  test("isomorphism invariance at h=2") {
    val edges = TestGraphs.plantedCommunities(2, 7, 0.8, 2, 44)
    val a = BaselinePeeling.trussness(LocalGraph.fromEdges(edges), 2)
    val b = BaselinePeeling.trussness(LocalGraph.fromEdges(TestGraphs.relabel(edges, 5)), 2)
    assert(a.sorted.toSeq == b.sorted.toSeq)
  }

  test("budget exceeded raises Budget.Exceeded") {
    val g = LocalGraph.fromEdges(GraphGen.smallWorld(400, 8, 0.1, 3))
    intercept[Budget.Exceeded] {
      BaselinePeeling.trussness(g, 3, deadlineNanos = System.nanoTime() + 1000L)
    }
  }

  test("empty graph yields empty result") {
    assert(BaselinePeeling.trussness(LocalGraph.fromEdges(Seq.empty), 2).isEmpty)
  }
}
