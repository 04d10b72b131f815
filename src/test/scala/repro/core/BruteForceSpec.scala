package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}

/** The definition-faithful oracle itself, pinned on hand-analyzable graphs. */
class BruteForceSpec extends AnyFunSuite {

  private def t(edges: Seq[(Int, Int)], h: Int): Map[(Int, Int), Int] = {
    val g  = LocalGraph.fromEdges(edges)
    val ts = BruteForce.trussness(g, h)
    (0 until g.m).map(e => (g.label(g.edgeSrc(e)), g.label(g.edgeDst(e))) -> ts(e)).toMap
  }

  test("K5 at h=1: every edge has trussness 5") {
    assert(t(TestGraphs.k5, 1).values.toSet == Set(5))
  }

  test("K4 at h=1: every edge has trussness 4") {
    assert(t(TestGraphs.k4, 1).values.toSet == Set(4))
  }

  test("path at h=1: every edge has trussness 2") {
    assert(t(TestGraphs.path5, 1).values.toSet == Set(2))
  }

  test("C6 at h=2: the cycle is a (4,2)-truss") {
    assert(t(TestGraphs.c6, 2).values.toSet == Set(4))
  }

  test("K4 with pendant at h=1: clique edges 4, pendant 2") {
    val ts = t(TestGraphs.k4Pendant, 1)
    assert(ts((0, 4)) == 2)
    assert((ts - ((0, 4))).values.toSet == Set(4))
  }

  test("two K4s with a bridge at h=1: bridge 2, cliques 4") {
    val ts = t(TestGraphs.twoCliquesBridge, 1)
    assert(ts((3, 4)) == 2)
    assert((ts - ((3, 4))).values.toSet == Set(4))
  }

  test("two K4s with a bridge at h=2: hierarchy appears") {
    val ts = t(TestGraphs.twoCliquesBridge, 2)
    // Within a K4 at h=2, every edge sees the other 2 clique vertices plus,
    // for edges at the bridge side, vertices across the bridge. All values
    // must be >= the h=1 values and the bridge must gain support.
    val h1 = t(TestGraphs.twoCliquesBridge, 1)
    assert(ts.forall { case (e, v) => v >= h1(e) })
    assert(ts((3, 4)) > 2)
  }

  test("star at h=2: K1,5 becomes a dense higher-order structure") {
    // Every edge has 2-support 4 and the whole star survives as (6,2)-truss:
    // deleting nothing, each edge keeps its 4 common 2-neighbors.
    assert(t(TestGraphs.star5, 2).values.toSet == Set(6))
  }

  test("trussness >= 2 always, and == 2 when support is 0") {
    val ts = t(TestGraphs.triPlusEdge, 1)
    assert(ts((10, 11)) == 2)
    assert(ts.values.forall(_ >= 2))
  }

  test("khTruss masks are nested in k (Lemma 1)") {
    val g = LocalGraph.fromEdges(TestGraphs.plantedCommunities(2, 6, 0.8, 2, 31))
    val all = new java.util.BitSet(g.m); all.set(0, g.m)
    for (h <- 1 to 2) {
      var prev = all
      for (k <- 2 to 8) {
        val cur = BruteForce.khTruss(g, h, k, all)
        val inter = cur.clone().asInstanceOf[java.util.BitSet]
        inter.and(prev)
        assert(inter == cur, s"(k=$k,h=$h)-truss not contained in previous")
        prev = cur
      }
    }
  }

  test("khTruss is a fixpoint: every surviving edge meets the threshold") {
    val g = LocalGraph.fromEdges(GraphGen.erdosRenyi(15, 30, 33))
    val all = new java.util.BitSet(g.m); all.set(0, g.m)
    for (h <- 1 to 2; k <- 3 to 6) {
      val mask    = BruteForce.khTruss(g, h, k, all)
      val support = new BruteForce.Support(g, h)
      var e = mask.nextSetBit(0)
      while (e >= 0) {
        assert(support(e, mask) >= k - 2)
        e = mask.nextSetBit(e + 1)
      }
    }
  }

  test("trussness is consistent with khTruss membership") {
    val g  = LocalGraph.fromEdges(GraphGen.chungLu(14, 28, 2.3, 35))
    val all = new java.util.BitSet(g.m); all.set(0, g.m)
    for (h <- 1 to 2) {
      val ts = BruteForce.trussness(g, h)
      for (k <- 2 to ts.max) {
        val mask = BruteForce.khTruss(g, h, k, all)
        for (e <- 0 until g.m)
          assert(mask.get(e) == (ts(e) >= k), s"h=$h k=$k e=$e")
      }
    }
  }
}
