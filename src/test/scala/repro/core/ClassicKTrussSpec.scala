package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalGraph

/** Classical triangle-based k-truss vs the definition oracle at h = 1. */
class ClassicKTrussSpec extends AnyFunSuite {

  test("hand graphs match brute force") {
    for (edges <- Seq(TestGraphs.triangle, TestGraphs.k4, TestGraphs.k5,
                      TestGraphs.bowtie, TestGraphs.k4Pendant,
                      TestGraphs.twoCliquesBridge, TestGraphs.path5,
                      TestGraphs.star5, TestGraphs.c6, TestGraphs.triPlusEdge)) {
      val g = LocalGraph.fromEdges(edges)
      assert(ClassicKTruss.trussness(g).toSeq == BruteForce.trussness(g, 1).toSeq,
             edges.toString)
    }
  }

  test("random pool matches brute force") {
    for ((edges, i) <- TestGraphs.randomPool(20, 22, 900).zipWithIndex) {
      val g = LocalGraph.fromEdges(edges)
      assert(ClassicKTruss.trussness(g).toSeq == BruteForce.trussness(g, 1).toSeq, s"graph $i")
    }
  }

  test("matches BaselinePeeling at h=1 (three-way agreement)") {
    for ((edges, i) <- TestGraphs.randomPool(10, 26, 950).zipWithIndex) {
      val g = LocalGraph.fromEdges(edges)
      assert(ClassicKTruss.trussness(g).toSeq == BaselinePeeling.trussness(g, 1).toSeq, s"graph $i")
    }
  }

  test("isomorphism invariance: trussness multiset survives relabeling") {
    val edges = TestGraphs.randomPool(1, 24, 990).head
    val g1 = LocalGraph.fromEdges(edges)
    val g2 = LocalGraph.fromEdges(TestGraphs.relabel(edges, 99))
    assert(ClassicKTruss.trussness(g1).sorted.toSeq == ClassicKTruss.trussness(g2).sorted.toSeq)
  }
}
