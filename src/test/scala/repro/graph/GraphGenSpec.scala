package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.GraphOps

/** Synthetic graph generators: validity, determinism, requested sizes.
  * (Property-style sweeps use seeded loops; the scalatest/scalacheck bridge
  * artifact is not available offline — pure scalacheck Properties suites
  * cover the randomized-input side.)
  */
class GraphGenSpec extends AnyFunSuite {

  private def assertValid(edges: Seq[(Int, Int)], n: Int): Unit = {
    assert(edges.forall { case (u, v) => u < v }, "canonical orientation")
    assert(edges.distinct.length == edges.length, "no duplicates")
    assert(edges.forall { case (u, v) => u >= 0 && v < n }, "vertex range")
  }

  test("erdosRenyi produces exactly m valid edges") {
    val e = GraphGen.erdosRenyi(50, 120, 1)
    assertValid(e, 50)
    assert(e.length == 120)
  }

  test("erdosRenyi caps m at n(n-1)/2") {
    val e = GraphGen.erdosRenyi(5, 100, 2)
    assert(e.length == 10)
  }

  test("erdosRenyi is deterministic in seed") {
    assert(GraphGen.erdosRenyi(40, 80, 7) == GraphGen.erdosRenyi(40, 80, 7))
    assert(GraphGen.erdosRenyi(40, 80, 7) != GraphGen.erdosRenyi(40, 80, 8))
  }

  test("chungLu produces exactly m valid edges") {
    val e = GraphGen.chungLu(100, 250, 2.5, 3)
    assertValid(e, 100)
    assert(e.length == 250)
  }

  test("chungLu is deterministic in seed") {
    assert(GraphGen.chungLu(60, 150, 2.2, 5) == GraphGen.chungLu(60, 150, 2.2, 5))
  }

  test("chungLu is skewed: max degree well above average") {
    val e = GraphGen.chungLu(300, 900, 2.1, 11)
    val deg = e.flatMap(p => Seq(p._1, p._2)).groupBy(identity).map(_._2.size)
    assert(deg.max >= 3 * (2.0 * e.length / 300))
  }

  test("smallWorld produces a valid graph of about n*k/2 edges") {
    val e = GraphGen.smallWorld(100, 4, 0.1, 4)
    assertValid(e, 100)
    assert(e.length >= 150 && e.length <= 200)
  }

  test("smallWorld with beta=0 is the exact ring lattice") {
    val e = GraphGen.smallWorld(20, 4, 0.0, 9)
    assert(e.length == 40)
    val expected = (for (u <- 0 until 20; j <- 1 to 2) yield {
      val v = (u + j) % 20; if (u < v) (u, v) else (v, u)
    }).toSet
    assert(e.toSet == expected)
  }

  test("smallWorld has high triangle count vs erdosRenyi at equal size") {
    def triangles(edges: Seq[(Int, Int)]): Int = {
      val s = edges.toSet
      def has(a: Int, b: Int) = s.contains(if (a < b) (a, b) else (b, a))
      val vs = edges.flatMap(p => Seq(p._1, p._2)).distinct
      (for (a <- vs; b <- vs if a < b; c <- vs if b < c)
        yield if (has(a, b) && has(b, c) && has(a, c)) 1 else 0).sum
    }
    val sw = GraphGen.smallWorld(60, 6, 0.05, 13)
    val er = GraphGen.erdosRenyi(60, sw.length, 13)
    assert(triangles(sw) > triangles(er))
  }

  test("plantedCommunities keeps communities dense and boundaries sparse") {
    val e = TestGraphs.plantedCommunities(3, 8, 0.9, 5, 17)
    assertValid(e, 24)
    val inter = e.count { case (u, v) => u / 8 != v / 8 }
    assert(inter == 5)
    assert(e.length - inter > 40) // ~0.9 * 3 * 28 intra edges expected
  }

  test("prefTree is a spanning tree: n-1 edges, all vertices, connected") {
    val n = 80
    val e = GraphGen.prefTree(n, 23)
    assertValid(e, n)
    assert(e.length == n - 1)
    assert(e.flatMap(p => Seq(p._1, p._2)).distinct.length == n)
    val g = LocalGraph.fromEdges(e)
    assert(g.ball(0, n).size == n - 1, "connected")
  }

  test("sparseConnected realizes every vertex with exactly m edges") {
    val e = GraphGen.sparseConnected(200, 260, 2.5, 29)
    assertValid(e, 200)
    assert(e.length == 260)
    assert(e.flatMap(p => Seq(p._1, p._2)).distinct.length == 200)
  }

  test("sparseConnected caps m at n(n-1)/2") {
    for (seed <- 0L until 5L) {
      val e = GraphGen.sparseConnected(5, 12, 2.5, seed)
      assert(e.toSet == TestGraphs.clique(5).toSet && e.length == 10, s"seed=$seed")
    }
  }

  test("sparseConnected is deterministic in seed") {
    assert(GraphGen.sparseConnected(50, 70, 2.4, 1) == GraphGen.sparseConnected(50, 70, 2.4, 1))
  }

  test("clique generates n(n-1)/2 edges") {
    assert(TestGraphs.clique(6).length == 15)
    assertValid(TestGraphs.clique(6), 6)
  }

  test("clique offset shifts vertex ids") {
    assert(TestGraphs.clique(3, offset = 10).toSet == Set((10, 11), (10, 12), (11, 12)))
  }

  test("cycle and path have expected sizes") {
    assert(TestGraphs.cycle(7).length == 7)
    assert(TestGraphs.path(7).length == 6)
  }

  test("relabel preserves size and degree multiset") {
    val e = GraphGen.erdosRenyi(30, 60, 21)
    val r = TestGraphs.relabel(e, 22)
    assert(r.length == e.length)
    def degs(es: Seq[(Int, Int)]) =
      es.flatMap(p => Seq(p._1, p._2)).groupBy(identity).map(_._2.size).toSeq.sorted
    assert(degs(r) == degs(e))
  }

  test("property sweep: erdosRenyi always valid across sizes and seeds") {
    for (seed <- 0L until 60L) {
      val n = 2 + (seed * 13 % 39).toInt
      val m = 1 + (seed * 7 % 100).toInt
      val e = GraphGen.erdosRenyi(n, m, seed)
      assertValid(e, n)
      assert(e.length == math.min(m.toLong, n.toLong * (n - 1) / 2))
    }
  }

  test("property sweep: chungLu always valid across sizes and seeds") {
    for (seed <- 0L until 60L) {
      val n = 2 + (seed * 17 % 39).toInt
      val m = 1 + (seed * 5 % 80).toInt
      assertValid(GraphGen.chungLu(n, m, 2.5, seed), n)
    }
  }
}
