package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.graph.LocalGraph

/** The paper's baseline (Algorithm 1): sequential higher-order truss
  * decomposition by peeling with bin sort.
  *
  * Repeatedly delete an edge of minimal current h-support, assign its
  * h-trussness ``max(sup + 2, k)``, and recompute the h-supports of the
  * edges whose common-h-neighborhoods the deletion can affect. Unlike the
  * h = 1 case (where a deleted triangle decrements supports by exactly one),
  * deleting an edge with h >= 2 changes reachability, so affected supports
  * are recomputed from scratch via BFS over the remaining graph — exactly
  * the cost profile that motivates the paper's parallel framework.
  *
  * Affected-edge set after deleting e = (u, v): a deleted edge can lie on a
  * (<= h)-hop path from an endpoint x of e' only if ``dist(x, u) <= h-1`` or
  * ``dist(x, v) <= h-1``; we BFS to depth h-1 from u and v over the
  * remaining graph and recompute every alive edge incident to a visited
  * vertex (a sound superset).
  */
object BaselinePeeling {

  /** h-trussness of every edge (aligned with CSR edge indices).
    * ``deadlineNanos``: cooperative budget, see [[Budget]].
    */
  def trussness(g: LocalGraph, h: Int, deadlineNanos: Long = Long.MaxValue): Array[Int] = {
    require(h >= 1, s"need h >= 1, got $h")
    val m = g.m
    if (m == 0) return new Array[Int](0)
    val scratch = new HopScratch(g)
    val alive   = new java.util.BitSet(m); alive.set(0, m)

    val sup = HSupport.local(g, h, deadlineNanos)
    val maxSup = sup.max
    val bins = Array.fill(maxSup + 3)(new ArrayBuffer[Int]())
    var e = 0
    while (e < m) { bins(sup(e) + 2) += e; e += 1 }

    val t = new Array[Int](m)
    var processed = 0
    var k = 2
    val affected = new ArrayBuffer[Int]()
    val seen     = new java.util.BitSet(m) // the edges in affected
    while (processed < m) {
      if (bins(k).isEmpty) k += 1
      else {
        val cand = bins(k).remove(bins(k).length - 1)
        // Lazy bucket queue: skip dead edges and stale entries (the edge's
        // live entry sits in the bin of its current key max(sup+2, k)).
        if (alive.get(cand) && math.max(sup(cand) + 2, k) == k) {
          Budget.check(deadlineNanos)
          t(cand) = k
          alive.clear(cand)
          processed += 1
          val u = g.edgeSrc(cand); val v = g.edgeDst(cand)
          // Collect candidate edges whose support may have dropped.
          affected.clear()
          var side = 0
          while (side < 2) {
            scratch.forEachBallVertex(if (side == 0) u else v, h - 1, alive) { z =>
              var i = g.offsets(z)
              val end = g.offsets(z + 1)
              while (i < end) {
                val f = g.adjEdge(i)
                if (alive.get(f) && !seen.get(f)) { seen.set(f); affected += f }
                i += 1
              }
            }
            side += 1
          }
          var j = 0
          while (j < affected.length) {
            if ((j & 255) == 0) Budget.check(deadlineNanos)
            val f = affected(j)
            seen.clear(f)
            if (sup(f) + 2 > k) { // below k the edge's key is pinned at k anyway
              val ns = scratch.support(g.edgeSrc(f), g.edgeDst(f), h, alive)
              if (ns != sup(f)) {
                sup(f) = ns
                bins(math.max(ns + 2, k)) += f
              }
            }
            j += 1
          }
        }
      }
    }
    t
  }
}
