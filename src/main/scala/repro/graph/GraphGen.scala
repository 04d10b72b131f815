package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * All generators return a canonical, de-duplicated, self-loop-free list of
  * undirected edges ``(u, v)`` with ``u < v``, deterministic in their
  * ``seed``. They are pure Scala (driver-side): the evaluation graphs in the
  * paper have at most ~1.2 M edges and our scaled analogues far fewer, so
  * generation is never the bottleneck — the decomposition is.
  */
object GraphGen {

  private def canon(u: Int, v: Int): (Int, Int) = if (u < v) (u, v) else (v, u)

  /** ``m`` capped at the ``n(n-1)/2`` edges a simple graph on ``n`` vertices has. */
  private def maxEdges(n: Int, m: Int): Int = math.min(m.toLong, n.toLong * (n - 1) / 2).toInt

  /** Adds uniformly drawn pairs to ``edges`` until it holds ``want``. */
  private def uniformTopUp(edges: mutable.LinkedHashSet[(Int, Int)], n: Int, want: Int, rng: Random): Unit =
    while (edges.size < want) {
      val u = rng.nextInt(n); val v = rng.nextInt(n)
      if (u != v) edges += canon(u, v)
    }

  /** Adds Chung–Lu pairs (see [[chungLu]]) to ``edges`` until it holds
    * ``want``: at most ``200 want + 1000`` draws by inverse-CDF sampling of
    * the endpoint weights, then uniform pairs if hub saturation stalled the
    * sampler.
    */
  private def powerLawFill(edges: mutable.LinkedHashSet[(Int, Int)], n: Int, want: Int, gamma: Double,
                           rng: Random): Unit = {
    val exp = 1.0 / (gamma - 1.0)
    val cum = new Array[Double](n)
    var acc = 0.0
    var i   = 0
    while (i < n) { acc += math.pow(i + 1.0, -exp); cum(i) = acc; i += 1 }
    def draw(): Int = {
      val x  = rng.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    var attempts = 0L
    val cap      = 200L * want + 1000L
    while (edges.size < want && attempts < cap) {
      val u = draw(); val v = draw()
      if (u != v) edges += canon(u, v)
      attempts += 1
    }
    uniformTopUp(edges, n, want, rng)
  }

  /** Erdős–Rényi G(n, m): exactly ``m`` distinct edges drawn uniformly
    * (or the maximum possible if ``m`` exceeds ``n(n-1)/2``).
    */
  def erdosRenyi(n: Int, m: Int, seed: Long): Seq[(Int, Int)] = {
    require(n >= 2, s"need n >= 2, got $n")
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    uniformTopUp(edges, n, maxEdges(n, m), new Random(seed))
    edges.toSeq
  }

  /** Chung–Lu power-law graph: ``m`` edges (or the maximum possible if
    * ``m`` exceeds ``n(n-1)/2``) with endpoints drawn with probability
    * proportional to ``w_i = (i+1)^(-1/(gamma-1))`` — expected degree
    * sequence follows a power law with exponent ``gamma``. Heavier tails
    * (smaller gamma) give hubbier graphs with more triangles.
    */
  def chungLu(n: Int, m: Int, gamma: Double, seed: Long): Seq[(Int, Int)] = {
    require(n >= 2 && gamma > 1.0, s"need n >= 2 and gamma > 1, got n=$n gamma=$gamma")
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    powerLawFill(edges, n, maxEdges(n, m), gamma, new Random(seed))
    edges.toSeq
  }

  /** Preferential-attachment tree on ``n`` vertices (n-1 edges): vertex i
    * attaches to an earlier vertex drawn proportionally to degree — the
    * hub-and-spoke skeleton of sparse real networks.
    */
  def prefTree(n: Int, seed: Long): Seq[(Int, Int)] = {
    require(n >= 2, s"need n >= 2, got $n")
    val rng = new Random(seed)
    val bag = new mutable.ArrayBuffer[Int](2 * n)
    bag += 0
    val edges = new mutable.ArrayBuffer[(Int, Int)](n - 1)
    var i = 1
    while (i < n) {
      val target = bag(rng.nextInt(bag.length))
      edges += canon(i, target)
      bag += i; bag += target
      i += 1
    }
    edges.toSeq
  }

  /** Sparse connected power-law graph: a [[prefTree]] skeleton (so every
    * vertex is realized, matching how KONECT edge lists define |V|) plus
    * ``m - (n-1)`` extra Chung–Lu edges with exponent ``gamma`` (up to
    * ``n(n-1)/2`` edges in all). The shape of sparse protein/city networks
    * with |E| close to |V|.
    */
  def sparseConnected(n: Int, m: Int, gamma: Double, seed: Long): Seq[(Int, Int)] = {
    require(m >= n - 1, s"need m >= n-1 for a connected graph, got n=$n m=$m")
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    edges ++= prefTree(n, seed)
    powerLawFill(edges, n, maxEdges(n, m), gamma, new Random(seed + 1))
    edges.toSeq
  }

  /** Watts–Strogatz small-world graph: ring lattice where each vertex links
    * to its ``k/2`` nearest neighbors on each side, each edge rewired with
    * probability ``beta``. High clustering — many triangles, deep trusses.
    */
  def smallWorld(n: Int, k: Int, beta: Double, seed: Long): Seq[(Int, Int)] = {
    require(n >= 4 && k >= 2 && k < n, s"need 2 <= k < n, got n=$n k=$k")
    val rng   = new Random(seed)
    val half  = k / 2
    val edges = mutable.LinkedHashSet.empty[(Int, Int)]
    for (u <- 0 until n; j <- 1 to half) {
      val v = (u + j) % n
      if (rng.nextDouble() < beta) {
        var w = rng.nextInt(n)
        var tries = 0
        while ((w == u || edges.contains(canon(u, w))) && tries < 32) { w = rng.nextInt(n); tries += 1 }
        if (w != u && !edges.contains(canon(u, w))) edges += canon(u, w)
        else edges += canon(u, v)
      } else edges += canon(u, v)
    }
    edges.toSeq
  }
}
