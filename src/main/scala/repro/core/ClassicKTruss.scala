package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.graph.LocalGraph

/** Classical triangle-based k-truss decomposition (h = 1), implemented the
  * standard way: exact triangle supports via adjacency intersection, then
  * bin-sort peeling with O(1) support decrements per destroyed triangle.
  *
  * This is an *independent code path* from both [[BaselinePeeling]] (which
  * recomputes supports via BFS) and the H-index engines — used in tests as a
  * third opinion for the h = 1 case, and as the conventional-model
  * comparator the paper contrasts with in its motivation.
  */
object ClassicKTruss {

  /** Trussness of every edge (aligned with CSR edge indices). */
  def trussness(g: LocalGraph): Array[Int] = {
    val m = g.m
    // Edge lookup: LocalGraph.fromEdges lays each CSR slice out strictly
    // increasing by neighbor id, so find the edge id of (a, b) by binary
    // search over a's adjacency.
    def edgeOf(a: Int, b: Int): Int = {
      var lo = g.offsets(a)
      var hi = g.offsets(a + 1) - 1
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        val w   = g.adjVert(mid)
        if (w == b) return g.adjEdge(mid)
        else if (w < b) lo = mid + 1
        else hi = mid - 1
      }
      -1
    }

    val sup = new Array[Int](m)
    var e = 0
    while (e < m) {
      val u = g.edgeSrc(e); val v = g.edgeDst(e)
      val (a, b) = if (g.degree(u) <= g.degree(v)) (u, v) else (v, u)
      var i = g.offsets(a)
      val end = g.offsets(a + 1)
      var c = 0
      while (i < end) {
        val w = g.adjVert(i)
        if (w != b && edgeOf(b, w) >= 0) c += 1
        i += 1
      }
      sup(e) = c
      e += 1
    }

    val alive = new java.util.BitSet(m); alive.set(0, m)
    val maxSup = if (m == 0) 0 else sup.max
    val bins = Array.fill(maxSup + 3)(new ArrayBuffer[Int]())
    e = 0
    while (e < m) { bins(sup(e) + 2) += e; e += 1 }
    val t = new Array[Int](m)
    var k = 2
    var processed = 0
    while (processed < m) {
      while (k + 1 < bins.length && bins(k).isEmpty) k += 1
      if (bins(k).isEmpty) {
        // Everything left has key > current max bin — advance k.
        k += 1
      } else {
        val cand = bins(k).remove(bins(k).length - 1)
        if (alive.get(cand) && math.max(sup(cand) + 2, k) == k) {
          t(cand) = k
          alive.clear(cand)
          processed += 1
          val u = g.edgeSrc(cand); val v = g.edgeDst(cand)
          val (a, b) = if (g.degree(u) <= g.degree(v)) (u, v) else (v, u)
          var i = g.offsets(a)
          val end = g.offsets(a + 1)
          while (i < end) {
            val w  = g.adjVert(i)
            val e1 = g.adjEdge(i)
            if (w != b && alive.get(e1)) {
              val e2 = edgeOf(b, w)
              if (e2 >= 0 && alive.get(e2)) {
                for (x <- Seq(e1, e2)) {
                  if (sup(x) + 2 > k) {
                    sup(x) -= 1
                    bins(math.max(sup(x) + 2, k)) += x
                  }
                }
              }
            }
            i += 1
          }
        } else if (alive.get(cand)) {
          // Stale bin entry: the edge's current key lives in another bin.
        }
      }
    }
    t
  }
}
