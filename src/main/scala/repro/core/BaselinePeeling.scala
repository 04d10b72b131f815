package repro.core

import repro.graph.LocalGraph

/** The paper's baseline (Algorithm 1): sequential higher-order truss
  * decomposition by peeling with bin sort.
  *
  * Repeatedly delete an edge of minimal current h-support, assign its
  * h-trussness ``max(sup + 2, k)``, and recompute from scratch, by BFS over
  * the remaining graph, the h-supports of the edges the deletion can
  * affect: for h >= 2 a deletion changes reachability, so supports do not
  * simply drop by one as at h = 1. This is the cost profile that motivates
  * the paper's parallel framework.
  *
  * Affected-edge set after deleting e = (u, v): a deleted edge can lie on a
  * (<= h)-hop path from an endpoint x of e' only if ``dist(x, u) <= h-1`` or
  * ``dist(x, v) <= h-1``, so every alive edge at a vertex within h-1 hops
  * of u or v is recomputed (a sound superset), unless its key is already
  * pinned at ``k`` (``sup + 2 <= k``).
  *
  * The support of ``(z, y)`` counts the vertices other than ``z`` and ``y``
  * in both ``ball_h(z)`` and ``ball_h(y)``. Each affected vertex ``z``
  * marks its ball once, and each edge ``(z, y)`` recomputed at ``z`` then
  * runs one BFS, from ``y``, counting the marked vertices; an edge between
  * two affected vertices is recomputed at the one of higher live degree,
  * whose ball serves more edges. The order-0 supports are counted the same
  * way, one ball per source vertex. Every BFS runs on a private copy of the
  * CSR adjacency from which a deleted edge is swap-removed at both
  * endpoints, so it scans live entries only; the [[LocalGraph]]'s arrays
  * are never written.
  */
object BaselinePeeling {

  /** h-trussness of every edge (aligned with CSR edge indices).
    * ``deadlineNanos``: cooperative budget, see [[Budget]].
    */
  def trussness(g: LocalGraph, h: Int, deadlineNanos: Long = Long.MaxValue): Array[Int] = {
    require(h >= 1, s"need h >= 1, got $h")
    if (g.m == 0) new Array[Int](0) else new Peel(g, h, deadlineNanos).run()
  }

  /** The state of one peel of a graph with edges. */
  private[core] final class Peel(g: LocalGraph, h: Int, deadlineNanos: Long) {
    private val n = g.n

    // Live adjacency: the live entries of v are at offsets(v) until
    // liveEnd(v); slot(2e) and slot(2e + 1) hold where edge e sits in the
    // slices of its source and of its destination.
    private val adjVert = g.adjVert.clone()
    private val adjEdge = g.adjEdge.clone()
    private val liveEnd = java.util.Arrays.copyOfRange(g.offsets, 1, n + 1)
    private val slot    = new Array[Int](2 * g.m)
    for (v <- 0 until n; i <- g.offsets(v) until g.offsets(v + 1)) {
      val e = adjEdge(i)
      slot(2 * e + (if (g.edgeSrc(e) == v) 0 else 1)) = i
    }

    // Each BFS marks its visits with a fresh token. ballMark holds the last
    // marked ball, whose token is ballToken; nearMark the affected vertices
    // of the last deletion, listed in near; visit any other BFS. Before a
    // step (the order-0 supports, or one deletion) whose at most 1 + n + m
    // BFSes could wrap the tokens, they restart at 0 over cleared marks;
    // tests may start them near that threshold.
    private[core] var token = 0
    private var ballToken   = 0
    private val ballMark    = new Array[Int](n)
    private val nearMark    = new Array[Int](n)
    private val visit       = new Array[Int](n)
    private val queue       = new Array[Int](n)
    private val near        = new Array[Int](n)
    private var supports    = 0 // support counts so far, for the budget checks

    /** BFS over the live adjacency to depth ``depth`` from the ``seeds``
      * vertices at the head of ``out``, marking each visit in ``mark``;
      * returns the number of vertices visited, listed in ``out``.
      */
    private def bfs(out: Array[Int], seeds: Int, depth: Int, mark: Array[Int]): Int = {
      token += 1
      var head = 0
      while (head < seeds) { mark(out(head)) = token; head += 1 }
      head = 0
      var tail = seeds
      var d = 0
      while (d < depth && head < tail) {
        val level = tail
        while (head < level) {
          val x = out(head)
          var i = g.offsets(x)
          val end = liveEnd(x)
          while (i < end) {
            val w = adjVert(i)
            if (mark(w) != token) { mark(w) = token; out(tail) = w; tail += 1 }
            i += 1
          }
          head += 1
        }
        d += 1
      }
      tail
    }

    private def markBall(z: Int): Unit = { queue(0) = z; bfs(queue, 1, h, ballMark); ballToken = token }

    /** h-support of the live edge ``(z, y)``, with ``ball_h(z)`` marked. */
    private def support(z: Int, y: Int): Int = {
      if ((supports & 255) == 0) Budget.check(deadlineNanos)
      supports += 1
      queue(0) = y
      val cnt = bfs(queue, 1, h, visit)
      var s = 0
      var j = 1
      while (j < cnt) { val w = queue(j); if (w != z && ballMark(w) == ballToken) s += 1; j += 1 }
      s
    }

    private def reserveTokens(): Unit = if (token > Int.MaxValue - (n.toLong + g.m + 2)) {
      for (mark <- Seq(ballMark, nearMark, visit)) java.util.Arrays.fill(mark, 0)
      token = 0
    }

    private def degree(v: Int): Int = liveEnd(v) - g.offsets(v)

    /** Swap-removes edge ``e`` from the live slices of both endpoints. */
    private def unlink(e: Int): Unit =
      for (side <- 0 to 1) {
        val x    = if (side == 0) g.edgeSrc(e) else g.edgeDst(e)
        val i    = slot(2 * e + side)
        val last = liveEnd(x) - 1
        val f    = adjEdge(last)
        adjVert(i) = adjVert(last)
        adjEdge(i) = f
        slot(2 * f + (if (g.edgeSrc(f) == x) 0 else 1)) = i
        liveEnd(x) = last
      }

    def run(): Array[Int] = {
      val m   = g.m
      val sup = new Array[Int](m)
      reserveTokens()
      for (e <- 0 until m) {
        val u = g.edgeSrc(e)
        if (e == 0 || u != g.edgeSrc(e - 1)) markBall(u)
        sup(e) = support(u, g.edgeDst(e))
      }
      // Bucket queue: bin b holds binLen(b) edge ids, grown on demand.
      val bins   = Array.fill(sup.max + 3)(new Array[Int](4))
      val binLen = new Array[Int](bins.length)
      def push(b: Int, e: Int): Unit = {
        if (binLen(b) == bins(b).length) bins(b) = java.util.Arrays.copyOf(bins(b), 2 * binLen(b))
        bins(b)(binLen(b)) = e
        binLen(b) += 1
      }
      for (e <- 0 until m) push(sup(e) + 2, e)

      val t = new Array[Int](m) // 0 while the edge is alive
      var processed = 0
      var k = 2
      while (processed < m) {
        if (binLen(k) == 0) k += 1
        else {
          binLen(k) -= 1
          val cand = bins(k)(binLen(k))
          // Lazy bucket queue: skip dead edges and stale entries (the edge's
          // live entry sits in the bin of its current key max(sup+2, k)).
          if (t(cand) == 0 && math.max(sup(cand) + 2, k) == k) {
            Budget.check(deadlineNanos)
            reserveTokens()
            t(cand) = k
            processed += 1
            unlink(cand)
            near(0) = g.edgeSrc(cand)
            near(1) = g.edgeDst(cand)
            val cnt  = bfs(near, 2, h - 1, nearMark)
            val seen = token
            var j = 0
            while (j < cnt) {
              val z  = near(j)
              val dz = degree(z)
              var marked = false
              var i = g.offsets(z)
              while (i < liveEnd(z)) {
                val f = adjEdge(i)
                val y = adjVert(i)
                // Below k the edge's key is pinned at k anyway.
                if (sup(f) + 2 > k && (nearMark(y) != seen || dz > degree(y) || dz == degree(y) && z < y)) {
                  if (!marked) { markBall(z); marked = true }
                  val ns = support(z, y)
                  if (ns != sup(f)) { sup(f) = ns; push(math.max(ns + 2, k), f) }
                }
                i += 1
              }
              j += 1
            }
          }
        }
      }
      t
    }
  }
}
