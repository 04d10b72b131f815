package repro.graph

import org.apache.spark.sql.DataFrame

/** Immutable CSR (compressed sparse row) view of an undirected graph.
  *
  * Vertices are re-indexed densely as ``0 until n``; ``label(i)`` recovers
  * the original vertex id. Edges are indexed ``0 until m`` in canonical
  * ``(src < dst)`` order sorted by ``(src, dst)``; ``edgeSrc``/``edgeDst``
  * give the dense endpoints of edge ``i`` and [[eids]] the stable 64-bit id
  * used by the distributed engine (so results can be joined across engines).
  *
  * The adjacency arrays carry, for each ``(v, neighbor)`` slot, the id of
  * the connecting edge (``adjEdge``) so per-edge key lookups during BFS are
  * O(1); each vertex's slice is strictly increasing by neighbor id. No
  * algorithm writes these arrays: the test oracles delete edges from an
  * ``alive`` mask that [[bfs]] takes, and the peeling baseline swap-removes
  * them from a private copy of the adjacency. The graph is
  * ``Serializable``, so the Spark engine can broadcast it.
  */
final class LocalGraph private (
    val n: Int,
    val m: Int,
    val label: Array[Int],
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val offsets: Array[Int],
    val adjVert: Array[Int],
    val adjEdge: Array[Int],
) extends Serializable {

  /** Stable 64-bit edge ids (original labels), aligned with edge indices. */
  lazy val eids: Array[Long] = {
    val out = new Array[Long](m)
    var i = 0
    while (i < m) { out(i) = EdgeList.eid(label(edgeSrc(i)), label(edgeDst(i))); i += 1 }
    out
  }

  /** Degree of dense vertex ``v``. */
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** BFS from ``src`` to depth ``maxHops`` over edges where ``alive`` is
    * true (null = all alive). Lists the visited vertices in BFS order,
    * ``src`` first, in ``out``, marks each with ``token`` in ``stamp`` and
    * its distance in ``dist``, and returns their number. Every array must
    * have length >= n, and ``token`` must differ from every earlier mark in
    * ``stamp``.
    */
  def bfs(src: Int, maxHops: Int, alive: java.util.BitSet,
          stamp: Array[Int], token: Int, dist: Array[Int], out: Array[Int]): Int = {
    var head = 0; var tail = 0
    out(tail) = src; tail += 1
    stamp(src) = token; dist(src) = 0
    while (head < tail) {
      val v = out(head); head += 1
      val dv = dist(v)
      if (dv < maxHops) {
        var i = offsets(v)
        val end = offsets(v + 1)
        while (i < end) {
          if (alive == null || alive.get(adjEdge(i))) {
            val w = adjVert(i)
            if (stamp(w) != token) {
              stamp(w) = token; dist(w) = dv + 1
              out(tail) = w; tail += 1
            }
          }
          i += 1
        }
      }
    }
    tail
  }
}

object LocalGraph {

  /** Build from canonical or raw pairs (self-loops dropped, duplicates
    * merged, orientation normalized). Works on primitive arrays: each
    * canonical pair ``u < v`` is packed into one ``Long`` that sorts as
    * ``(u, v)``, and the sorted distinct endpoints are the labels, so the
    * dense edges come out sorted by ``(src, dst)``.
    */
  def fromEdges(pairs: Seq[(Int, Int)]): LocalGraph = {
    val packed = new Array[Long](pairs.size)
    var k  = 0
    val it = pairs.iterator
    while (it.hasNext) {
      val (a, b) = it.next()
      if (a != b) {
        packed(k) = (math.min(a, b).toLong << 32) | (math.max(a, b).toLong - Int.MinValue)
        k += 1
      }
    }
    java.util.Arrays.sort(packed, 0, k)
    var m = 0
    var i = 0
    while (i < k) {
      if (m == 0 || packed(i) != packed(m - 1)) { packed(m) = packed(i); m += 1 }
      i += 1
    }
    val ends = new Array[Int](2 * m)
    i = 0
    while (i < m) {
      ends(2 * i) = (packed(i) >> 32).toInt
      ends(2 * i + 1) = (packed(i) + Int.MinValue).toInt
      i += 1
    }
    java.util.Arrays.sort(ends)
    var n = 0
    i = 0
    while (i < ends.length) {
      if (n == 0 || ends(i) != ends(n - 1)) { ends(n) = ends(i); n += 1 }
      i += 1
    }
    val labels  = java.util.Arrays.copyOf(ends, n)
    val edgeSrc = new Array[Int](m)
    val edgeDst = new Array[Int](m)
    val deg     = new Array[Int](n)
    i = 0
    while (i < m) {
      val u = java.util.Arrays.binarySearch(labels, (packed(i) >> 32).toInt)
      val v = java.util.Arrays.binarySearch(labels, (packed(i) + Int.MinValue).toInt)
      edgeSrc(i) = u; edgeDst(i) = v
      deg(u) += 1; deg(v) += 1
      i += 1
    }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor  = offsets.clone()
    val adjVert = new Array[Int](2 * m)
    val adjEdge = new Array[Int](2 * m)
    var e = 0
    while (e < m) {
      val u = edgeSrc(e); val v = edgeDst(e)
      adjVert(cursor(u)) = v; adjEdge(cursor(u)) = e; cursor(u) += 1
      adjVert(cursor(v)) = u; adjEdge(cursor(v)) = e; cursor(v) += 1
      e += 1
    }
    new LocalGraph(n, m, labels, edgeSrc, edgeDst, offsets, adjVert, adjEdge)
  }

  /** Collect a canonical edge DataFrame (``src``, ``dst`` columns) to a
    * local CSR graph. Caller guarantees the graph fits on the driver.
    */
  def fromDataFrame(edges: DataFrame): LocalGraph =
    fromEdges(edges.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1))).toSeq)
}
