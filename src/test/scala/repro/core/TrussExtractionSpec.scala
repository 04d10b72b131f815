package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalGraph

/** (k,h)-truss retrieval from a completed decomposition: by Lemma 1 it is the
  * level set `trussness >= k`. */
class TrussExtractionSpec extends AnyFunSuite {

  test("extracted truss equals BruteForce.khTruss on hand graphs") {
    for (edges <- Seq(TestGraphs.twoCliquesBridge, TestGraphs.bowtie, TestGraphs.fig1Like);
         h <- 1 to 2) {
      val g = LocalGraph.fromEdges(edges)
      val t = BaselinePeeling.trussness(g, h)
      val all = new java.util.BitSet(g.m); all.set(0, g.m)
      for (k <- 2 to (if (t.isEmpty) 2 else t.max)) {
        val levelSet = new java.util.BitSet(g.m)
        for (e <- 0 until g.m if t(e) >= k) levelSet.set(e)
        assert(levelSet == BruteForce.khTruss(g, h, k, all), s"h=$h k=$k")
      }
    }
  }
}
