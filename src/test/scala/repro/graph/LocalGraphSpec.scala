package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{NaiveReference, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps

/** CSR graph substrate: construction, degrees, BFS balls, common neighbors. */
class LocalGraphSpec extends AnyFunSuite {

  test("fromEdges canonicalizes: self-loops and duplicates dropped") {
    val g = LocalGraph.fromEdges(Seq((1, 1), (1, 2), (2, 1), (1, 2), (2, 3)))
    assert(g.m == 2)
    assert(g.edgePairs.toSet == Set((1, 2), (2, 3)))
  }

  test("fromEdges builds the same CSR arrays as the tuple-based reference builder") {
    val rng = new scala.util.Random(2024)
    val extremes = Seq(Int.MinValue, Int.MinValue + 1, -1, 0, 1, Int.MaxValue - 1, Int.MaxValue)
    def label(): Int =
      if (rng.nextInt(3) == 0) extremes(rng.nextInt(extremes.length)) else rng.nextInt(40) - 20
    val inputs = Seq(Seq.empty[(Int, Int)], Seq((Int.MinValue, Int.MaxValue)), TestGraphs.bowtie) ++
      (0 until 200).map { _ =>
        val pairs = Seq.fill(rng.nextInt(60))((label(), label()))
        // Self-loops, duplicates and both orientations of some pairs.
        pairs ++ pairs.take(rng.nextInt(10)).map(_.swap) ++ pairs.take(rng.nextInt(5)) ++
          Seq.fill(rng.nextInt(3)) { val x = label(); (x, x) }
      }
    for ((pairs, i) <- inputs.zipWithIndex) {
      val g   = LocalGraph.fromEdges(pairs)
      val ref = LocalGraphSpec.referenceCsr(pairs)
      val got = Seq(g.label, g.edgeSrc, g.edgeDst, g.offsets, g.adjVert, g.adjEdge)
      assert(g.n == ref.head.length && g.m == ref(1).length, s"input $i")
      for ((a, b) <- got.zip(ref)) assert(a.toSeq == b.toSeq, s"input $i: $pairs")
    }
  }

  test("labels map dense ids back to original vertex ids") {
    val g = LocalGraph.fromEdges(Seq((100, 7), (7, 42)))
    assert(g.label.toSet == Set(7, 42, 100))
    assert(g.edgePairs.toSet == Set((7, 100), (7, 42)))
  }

  test("degrees of K5 are all 4") {
    val g = LocalGraph.fromEdges(TestGraphs.k5)
    assert((0 until g.n).forall(g.degree(_) == 4))
  }

  test("degrees match naive adjacency on a random graph") {
    val edges = GraphGen.erdosRenyi(40, 90, 5)
    val g     = LocalGraph.fromEdges(edges)
    val adj   = NaiveReference.adjacency(edges)
    for (i <- 0 until g.n) assert(g.degree(i) == adj(g.label(i)).size)
  }

  test("neighbors are consistent with adjacency") {
    val edges = GraphGen.chungLu(30, 60, 2.3, 6)
    val g     = LocalGraph.fromEdges(edges)
    val adj   = NaiveReference.adjacency(edges)
    for (i <- 0 until g.n)
      assert(g.neighbors(i).map(g.label).toSet == adj(g.label(i)))
  }

  test("eids align with edge indices") {
    val g = LocalGraph.fromEdges(TestGraphs.bowtie)
    for (e <- 0 until g.m)
      assert(g.eids(e) == EdgeList.eid(g.label(g.edgeSrc(e)), g.label(g.edgeDst(e))))
  }

  test("adjacency slices are strictly increasing and aligned with edge ids") {
    for ((edges, i) <- TestGraphs.randomPool(12, 40, 900).zipWithIndex) {
      val g = LocalGraph.fromEdges(edges)
      for (v <- 0 until g.n; s <- g.offsets(v) until g.offsets(v + 1)) {
        if (s > g.offsets(v)) assert(g.adjVert(s - 1) < g.adjVert(s), s"pool$i v=$v slot=$s")
        val e = g.adjEdge(s)
        assert(Set(g.edgeSrc(e), g.edgeDst(e)) == Set(v, g.adjVert(s)), s"pool$i v=$v slot=$s")
      }
    }
  }

  test("ball(v, 1) equals the neighbor set") {
    val g = LocalGraph.fromEdges(TestGraphs.twoCliquesBridge)
    for (v <- 0 until g.n) assert(g.ball(v, 1) == g.neighbors(v).toSet)
  }

  test("ball(v, h) matches naive BFS distances on random graphs") {
    for (seed <- 0 until 8) {
      val edges = GraphGen.erdosRenyi(25, 45, seed)
      val g     = LocalGraph.fromEdges(edges)
      val dist  = NaiveReference.distances(edges)
      for (h <- 1 to 3; v <- 0 until g.n) {
        val expected = (0 until g.n)
          .filter(w => w != v && dist.get((g.label(v), g.label(w))).exists(_ <= h))
          .toSet
        assert(g.ball(v, h) == expected, s"seed=$seed h=$h v=$v")
      }
    }
  }

  test("ball on a path graph grows linearly") {
    val g = LocalGraph.fromEdges(TestGraphs.path(10))
    assert(g.ball(0, 1) == Set(1))
    assert(g.ball(0, 3) == Set(1, 2, 3))
    assert(g.ball(5, 2) == Set(3, 4, 6, 7))
  }

  test("bfs respects the alive-edge mask") {
    val g = LocalGraph.fromEdges(TestGraphs.path(5)) // edges (0,1),(1,2),(2,3),(3,4)
    val alive = new java.util.BitSet(g.m); alive.set(0, g.m)
    // Kill the middle edge (1,2): vertex 0 should no longer reach 3.
    val mid = (0 until g.m).find(e => g.edgeSrc(e) == 1 && g.edgeDst(e) == 2).get
    alive.clear(mid)
    val stamp = new Array[Int](g.n); val dist = new Array[Int](g.n); val out = new Array[Int](g.n)
    val cnt = g.bfs(0, 4, alive, stamp, 1, dist, out)
    assert((0 until cnt).map(out(_)).toSet == Set(0, 1))
  }

  test("commonHNeighbors of a triangle edge at h=1 is the third vertex") {
    val g = LocalGraph.fromEdges(TestGraphs.triangle)
    assert(g.commonHNeighbors(0, 1, 1) == Set(2))
  }

  test("commonHNeighbors matches naive on random graphs for h in 1..3") {
    for (seed <- 0 until 6) {
      val edges = GraphGen.chungLu(20, 40, 2.4, seed + 50)
      val g     = LocalGraph.fromEdges(edges)
      for (h <- 1 to 3; e <- 0 until g.m) {
        val u = g.edgeSrc(e); val v = g.edgeDst(e)
        val expected = NaiveReference
          .commonHNeighbors(edges, g.label(u), g.label(v), h)
        assert(g.commonHNeighbors(u, v, h).map(g.label) == expected, s"seed=$seed h=$h e=$e")
      }
    }
  }

  test("fromDataFrame round-trips through Spark") {
    for (pairs <- Seq(TestGraphs.fig1Like, TestGraphs.triPlusEdge, GraphGen.chungLu(40, 90, 2.3, 11))) {
      val got    = LocalGraph.fromDataFrame(EdgeList.fromPairs(SparkSpec.shared, pairs))
      val expect = LocalGraph.fromEdges(pairs)
      assert(got.n == expect.n && got.m == expect.m)
      assert(got.label.toSeq == expect.label.toSeq)
      assert(got.edgeSrc.toSeq == expect.edgeSrc.toSeq && got.edgeDst.toSeq == expect.edgeDst.toSeq)
      assert(got.eids.toSeq == expect.eids.toSeq)
    }
  }

  test("empty graph has zero edges and vertices") {
    val g = LocalGraph.fromEdges(Seq.empty)
    assert(g.n == 0 && g.m == 0)
  }

  test("disconnected components are preserved") {
    val g = LocalGraph.fromEdges(TestGraphs.triPlusEdge)
    assert(g.n == 5 && g.m == 4)
    val dense10 = g.label.indexOf(10)
    assert(g.ball(dense10, 5).map(g.label) == Set(11))
  }
}

object LocalGraphSpec {

  /** The CSR arrays ``label, edgeSrc, edgeDst, offsets, adjVert, adjEdge``
    * built with Scala collections of tuples, as ``LocalGraph.fromEdges``
    * once did: the reference for its primitive-array build.
    */
  def referenceCsr(pairs: Seq[(Int, Int)]): Seq[Array[Int]] = {
    val canonical = pairs.iterator
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toSeq.distinct
    val labels = canonical.flatMap(e => Seq(e._1, e._2)).distinct.sorted.toArray
    val index  = labels.zipWithIndex.toMap
    val dense  = canonical.map { case (u, v) =>
      val (a, b) = (index(u), index(v)); if (a < b) (a, b) else (b, a)
    }.sortBy(identity).toArray
    val n = labels.length
    val m = dense.length
    val edgeSrc = dense.map(_._1)
    val edgeDst = dense.map(_._2)
    val deg = new Array[Int](n)
    dense.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val offsets = new Array[Int](n + 1)
    for (i <- 0 until n) offsets(i + 1) = offsets(i) + deg(i)
    val cursor  = offsets.clone()
    val adjVert = new Array[Int](2 * m)
    val adjEdge = new Array[Int](2 * m)
    for (e <- 0 until m) {
      val u = edgeSrc(e); val v = edgeDst(e)
      adjVert(cursor(u)) = v; adjEdge(cursor(u)) = e; cursor(u) += 1
      adjVert(cursor(v)) = u; adjEdge(cursor(v)) = e; cursor(v) += 1
    }
    Seq(labels, edgeSrc, edgeDst, offsets, adjVert, adjEdge)
  }
}
