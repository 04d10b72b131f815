package repro.core

import repro.graph.LocalGraph

/** Definition-faithful (k,h)-truss computation for tiny graphs — the ground
  * truth every other engine is tested against.
  *
  * For each k, the (k,h)-truss is obtained by iterated deletion: repeatedly
  * remove every edge whose h-support *within the current subgraph* is below
  * ``k - 2`` until stable. Iterated deletion yields the unique maximal
  * subgraph satisfying the constraint, matching Definition 4 directly.
  * Complexity is O(k_max * m^2 * ball), fine for test-scale graphs only.
  * The oracle counts supports itself, by two BFSes per edge over
  * [[LocalGraph.bfs]], and shares no code with the engines' ``HopScratch``.
  */
object BruteForce {

  /** h-supports of edges over an alive-edge mask, in reused BFS buffers. */
  final class Support(g: LocalGraph, h: Int) {
    private val stampU, stampV, dist, order = new Array[Int](g.n)
    private var token = 0

    /** h-support of edge ``e`` over the ``alive`` edges: the number of
      * vertices other than its endpoints within ``h`` hops of both.
      */
    def apply(e: Int, alive: java.util.BitSet): Int = {
      val u = g.edgeSrc(e)
      val v = g.edgeDst(e)
      token += 1
      g.bfs(v, h, alive, stampV, token, dist, order)
      val cnt = g.bfs(u, h, alive, stampU, token, dist, order)
      (0 until cnt).count { i => val w = order(i); w != u && w != v && stampV(w) == token }
    }
  }

  /** The maximal subgraph (as an alive-edge mask) of ``alive`` in which
    * every edge has h-support >= ``k - 2``.
    */
  def khTruss(g: LocalGraph, h: Int, k: Int, alive: java.util.BitSet): java.util.BitSet = {
    val cur     = alive.clone().asInstanceOf[java.util.BitSet]
    val support = new Support(g, h)
    var changed = true
    while (changed) {
      changed = false
      var e = cur.nextSetBit(0)
      while (e >= 0) {
        if (support(e, cur) < k - 2) {
          cur.clear(e)
          changed = true
        }
        e = cur.nextSetBit(e + 1)
      }
    }
    cur
  }

  /** h-trussness of every edge: peel (k,h)-trusses for k = 2, 3, ... until
    * empty; an edge in the (k,h)-truss but not the (k+1,h)-truss has
    * trussness k. Every edge has trussness >= 2 by convention (sup >= 0).
    */
  def trussness(g: LocalGraph, h: Int): Array[Int] = {
    val t = new Array[Int](g.m)
    var cur = new java.util.BitSet(g.m)
    cur.set(0, g.m)
    var k = 2
    while (!cur.isEmpty) {
      val next = khTruss(g, h, k + 1, cur)
      var e = cur.nextSetBit(0)
      while (e >= 0) {
        if (!next.get(e)) t(e) = k
        e = cur.nextSetBit(e + 1)
      }
      cur = next
      k += 1
    }
    t
  }
}
