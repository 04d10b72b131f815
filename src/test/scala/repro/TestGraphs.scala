package repro

import scala.collection.mutable
import scala.util.Random
import repro.graph.{GraphGen, LocalGraph}

/** Hand-built graphs with known truss structure, the generators that build
  * them, and allocating [[LocalGraph]] helpers, shared across suites.
  */
object TestGraphs {

  private def canon(u: Int, v: Int): (Int, Int) = if (u < v) (u, v) else (v, u)

  /** Complete graph K_n — every edge has 1-support ``n-2`` (hand oracle). */
  def clique(n: Int, offset: Int = 0): Seq[(Int, Int)] =
    for (i <- 0 until n; j <- i + 1 until n) yield (i + offset, j + offset)

  /** Cycle C_n — 2-support of every edge is 2 for n >= 5 (hand oracle). */
  def cycle(n: Int): Seq[(Int, Int)] =
    (0 until n).map(i => canon(i, (i + 1) % n))

  /** Path P_n (n vertices, n-1 edges) — triangle-free (hand oracle). */
  def path(n: Int): Seq[(Int, Int)] =
    (0 until n - 1).map(i => (i, i + 1))

  /** Planted-community graph: ``c`` communities of size ``size`` with
    * intra-community edge probability ``pIn`` and ``mOut`` random
    * inter-community edges. Produces a clear truss hierarchy (dense cores
    * inside communities, weak ties between).
    */
  def plantedCommunities(c: Int, size: Int, pIn: Double, mOut: Int, seed: Long): Seq[(Int, Int)] = {
    require(c >= 1 && size >= 2, s"need c >= 1 and size >= 2, got c=$c size=$size")
    val rng   = new Random(seed)
    val n     = c * size
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    for (ci <- 0 until c; i <- 0 until size; j <- i + 1 until size)
      if (rng.nextDouble() < pIn) edges += canon(ci * size + i, ci * size + j)
    var added = 0
    var tries = 0
    while (added < mOut && tries < 100 * mOut + 100) {
      val u = rng.nextInt(n); val v = rng.nextInt(n)
      if (u != v && u / size != v / size && !edges.contains(canon(u, v))) { edges += canon(u, v); added += 1 }
      tries += 1
    }
    edges.toSeq
  }

  /** Apply a deterministic random relabeling of vertices, to test that
    * decompositions are invariant under isomorphism.
    */
  def relabel(edges: Seq[(Int, Int)], seed: Long): Seq[(Int, Int)] = {
    val vs   = edges.flatMap(e => Seq(e._1, e._2)).distinct.sorted
    val perm = new Random(seed).shuffle(vs)
    val map  = vs.zip(perm).toMap
    edges.map { case (u, v) => canon(map(u), map(v)) }
  }

  /** Allocating views of a [[LocalGraph]]; the engines use
    * [[LocalGraph.bfs]] with scratch buffers instead.
    */
  implicit class GraphOps(private val g: LocalGraph) extends AnyVal {

    /** Neighbors of dense vertex ``v`` (fresh array). */
    def neighbors(v: Int): Array[Int] = g.adjVert.slice(g.offsets(v), g.offsets(v + 1))

    /** h-hop neighborhood of ``v``: dense vertices at distance 1..h. */
    def ball(v: Int, h: Int): Set[Int] = {
      val stamp = new Array[Int](g.n)
      val dist  = new Array[Int](g.n)
      val out   = new Array[Int](g.n)
      val cnt   = g.bfs(v, h, null, stamp, 1, dist, out)
      (0 until cnt).map(out(_)).toSet - v
    }

    /** Common h-neighbors of edge ``(u, v)`` (dense ids, excluding u and v). */
    def commonHNeighbors(u: Int, v: Int, h: Int): Set[Int] =
      (ball(u, h) intersect ball(v, h)) - u - v

    /** Edges as canonical original-label pairs, aligned with edge indices. */
    def edgePairs: Seq[(Int, Int)] =
      (0 until g.m).map(i => (g.label(g.edgeSrc(i)), g.label(g.edgeDst(i))))
  }

  /** Single triangle 0-1-2. */
  val triangle: Seq[(Int, Int)] = clique(3)

  /** K4: every edge has 1-support 2, trussness 4. */
  val k4: Seq[(Int, Int)] = clique(4)

  /** K5: every edge has 1-support 3, trussness 5. */
  val k5: Seq[(Int, Int)] = clique(5)

  /** C6: triangle-free; for h=2 every edge has 2-support 2, 2-trussness 4. */
  val c6: Seq[(Int, Int)] = cycle(6)

  /** Path on 5 vertices: no edge has common neighbors at h=1. */
  val path5: Seq[(Int, Int)] = path(5)

  /** Bowtie: two triangles {0,1,2} and {2,3,4} sharing vertex 2. */
  val bowtie: Seq[(Int, Int)] = Seq((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))

  /** K4 and a pendant edge hanging off vertex 0. */
  val k4Pendant: Seq[(Int, Int)] = clique(4) :+ (0, 4)

  /** Two K4s joined by a single bridge edge — clear truss hierarchy. */
  val twoCliquesBridge: Seq[(Int, Int)] =
    clique(4) ++ clique(4, offset = 4) :+ (3, 4)

  /** Star K1,5: triangle-free, diameter 2. */
  val star5: Seq[(Int, Int)] = (1 to 5).map(i => (0, i))

  /** Disconnected: a triangle and a separate edge. */
  val triPlusEdge: Seq[(Int, Int)] = triangle :+ (10, 11)

  /** The motivating-example shape of the paper's Figure 1 (14 nodes, two
    * dense communities and a sparse tail): not the exact toy graph (the
    * figure is an image) but the same size and flavour — used for smoke
    * tests, with correctness asserted against BruteForce, not the figure.
    */
  val fig1Like: Seq[(Int, Int)] =
    clique(5) ++ clique(5, offset = 5) ++
      Seq((4, 5), (9, 10), (10, 11), (11, 12), (12, 13), (13, 10), (0, 13))

  /** A pool of diverse small random graphs for cross-validation sweeps. */
  def randomPool(count: Int, maxN: Int, seed: Long): Seq[Seq[(Int, Int)]] =
    (0 until count).map { i =>
      val s = seed + i
      val n = 8 + ((s * 7919) % (maxN - 8)).toInt.abs
      (i % 4) match {
        case 0 => GraphGen.erdosRenyi(n, 2 * n, s)
        case 1 => GraphGen.chungLu(n, 2 * n, 2.3, s)
        case 2 => GraphGen.smallWorld(math.max(n, 8), 4, 0.2, s)
        case _ => plantedCommunities(2, math.max(4, n / 2), 0.7, 3, s)
      }
    }
}
