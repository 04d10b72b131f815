package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{Datasets, GraphGen, LocalGraph}

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

  /** A star on ``leaves`` leaves plus ``chords`` random edges between
    * leaves: the centre owns most of the edges each deletion affects.
    */
  private def starWithChords(leaves: Int, chords: Int, seed: Long): Seq[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    (1 to leaves).map((0, _)) ++ Seq.fill(chords)((1 + rnd.nextInt(leaves), 1 + rnd.nextInt(leaves)))
  }

  test("hub-heavy graphs at h=1..3") {
    for (h <- 1 to 3; seed <- 0 until 3) {
      check(starWithChords(12, 10 + 4 * seed, 900 + seed), h, s"star$seed")
      check(GraphGen.chungLu(24, 60, 2.0, 910 + seed), h, s"chungLu$seed")
    }
  }

  test("GA analogue at h=2 equals local Paral") {
    val g = Datasets.GA.localGraph
    assert(BaselinePeeling.trussness(g, 2).toSeq ==
             LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = 4)).trussness.toSeq)
  }

  test("the graph's arrays are never written") {
    for (edges <- Seq(TestGraphs.randomPool(1, 20, 400).head, GraphGen.chungLu(40, 100, 2.0, 401)); h <- 1 to 3) {
      val g = LocalGraph.fromEdges(edges)
      def arrays = Seq(g.offsets, g.adjVert, g.adjEdge, g.edgeSrc, g.edgeDst).map(_.toSeq)
      val before = arrays
      BaselinePeeling.trussness(g, h)
      assert(arrays == before, s"h=$h")
      for (v <- 0 until g.n) {
        val slice = g.adjVert.slice(g.offsets(v), g.offsets(v + 1))
        assert(slice.toSeq == slice.distinct.sorted.toSeq, s"h=$h v=$v")
      }
    }
  }

  test("BFS tokens started just below the restart threshold give the same trussness") {
    // The order-0 supports take the last tokens below the threshold, so the
    // first deletion step restarts them at 0 over cleared marks.
    for ((edges, i) <- TestGraphs.randomPool(8, 18, 900).zipWithIndex; h <- 1 to 3) {
      val g     = LocalGraph.fromEdges(edges)
      val start = (Int.MaxValue - (g.n.toLong + g.m + 2)).toInt
      val peel  = new BaselinePeeling.Peel(g, h, Long.MaxValue)
      peel.token = start
      val got = peel.run().toSeq
      assert(peel.token >= 0 && peel.token < start, s"rand$i h=$h: the tokens did not restart")
      assert(got == BaselinePeeling.trussness(g, h).toSeq, s"rand$i h=$h")
      assert(got == BruteForce.trussness(g, h).toSeq, s"rand$i h=$h")
    }
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
