package repro.core

import repro.graph.LocalGraph

/** Static h-ball index of a [[LocalGraph]] plus one maximin key per entry:
  * the per-vertex key store every round of the local engine shares (see
  * [[HopScratch]]). The engine builds it once per decomposition, in every
  * mode: ``ballSize(v) = |ball_h(v)|`` sizes it, and [[HopScratch.fillBall]]
  * fills in each ball and where its rim starts.
  *
  * ``ballOff`` holds three offsets into ``ballVert`` per vertex, whatever
  * ``h``: ``ballVert(start(v) until end(v))`` is ``ball_h(v)`` in BFS order
  * (``v`` itself first) and ``ballVert(start(v) until nearEnd(v))`` is
  * ``ball_{h-1}(v)``. ``keys(j)`` is the maximin key from ``v`` to
  * ``ballVert(j)``; it is ``null`` unless ``keyed``, since an index whose
  * keys no edge phase reads needs none. Each array holds ``Σ|ball_h(v)|``
  * ints, each ball counting its root: 8 bytes per ball entry in all, or 4
  * without keys.
  *
  * Freshness: ``v``'s keys depend only on the values of edges with an
  * endpoint within ``h - 1`` hops of ``v``. A private flag per vertex says
  * whether such an edge has changed, in a way that can lower one of them,
  * since they were written: every vertex starts [[stale]], [[store]] makes
  * it fresh and [[markStale]] ([[HopScratch.walk]]) stale again. The walk
  * and the edge phase never overlap, so no mark races a write.
  */
final class BallIndex(val h: Int, ballSize: Array[Int], keyed: Boolean) {
  private val n = ballSize.length
  val ballOff = new Array[Int](2 * n + 1)
  for (v <- 0 until n) ballOff(2 * v + 2) = ballOff(2 * v) + ballSize(v)
  val ballVert = new Array[Int](ballOff(2 * n))
  val keys     = if (keyed) new Array[Int](ballVert.length) else null

  // 1 = fresh; 0, the initial value, = stale.
  private val fresh = new java.util.concurrent.atomic.AtomicIntegerArray(n)

  def start(v: Int): Int   = ballOff(2 * v)
  def nearEnd(v: Int): Int = ballOff(2 * v + 1)
  def end(v: Int): Int     = ballOff(2 * v + 2)

  /** Whether ``v``'s stored keys may differ from keys built from the
    * current values.
    */
  def stale(v: Int): Boolean = fresh.get(v) == 0

  /** Marks ``v``'s stored keys stale. */
  def markStale(v: Int): Unit = fresh.lazySet(v, 0)

  /** Stores ``v``'s keys from the dense buffer ``key``, then marks them
    * fresh by a release store, which publishes them to readers of the flag.
    */
  def store(v: Int, key: Array[Int]): Unit = {
    var j = start(v)
    val e = end(v)
    while (j < e) { keys(j) = key(ballVert(j)); j += 1 }
    fresh.lazySet(v, 1)
  }
}

/** Per-thread scratch workspace for h-hop computations on a [[LocalGraph]].
  *
  * Holds a stamped BFS buffer, a BFS order per edge endpoint, one key
  * buffer per endpoint for the hop-bounded maximin ("widest path") DP of
  * Algorithm 3 with its frontier, and the counting buffer of the H-index
  * aggregation — all allocation-free in steady state. One instance per
  * worker thread; instances must not be shared across threads.
  *
  * [[storeSupports]] counts the order-0 values, the h-supports, from the
  * index's balls. Algorithm 3's order-n value of ``e = (u, v)`` depends
  * only on the maximin keys of ``u`` and ``v``, so every round runs over a
  * [[BallIndex]] that stores each vertex's keys: [[storeKeys]] rewrites one
  * vertex's keys and [[storeHIndices]], a round's one edge phase, combines
  * the keys of each edge's endpoints. It rewrites each stale key it meets
  * on first use; an asynchronous round also rebuilds each source's keys
  * from the live values. [[computeHIndex]] is the single-edge kernel: it
  * rebuilds both endpoints' keys by BFS and DP and needs no index. The
  * Spark engine's tasks run it, and the tests hold the local engine's
  * indexed rounds to it.
  *
  * The maximin DP makes at most ``h`` sweeps, and sweep ``d`` pushes only
  * from the frontier, the vertices whose key rose in sweep ``d - 1``: any
  * other vertex pushed its key already. It stops at the first sweep that
  * raises no key. Both H-index counts stop once ``min(cap, candidates)``
  * contributions reach that bound, which is then the value. The key
  * buffers hold -1 outside any call, so a vertex outside the ball never
  * contributes.
  */
final class HopScratch(g: LocalGraph) {
  private var token = 0

  private val stamp  = new Array[Int](g.n)
  // BFS distances; within a maximin DP, -1 marks the next frontier's vertices.
  private val dist   = new Array[Int](g.n)
  private val orderU = new Array[Int](g.n)
  private val orderV = new Array[Int](g.n)

  // keyU holds an edge phase's source keys; keyV builds the keys stored
  // for any other vertex.
  private val keyU = noKeys()
  private val keyV = noKeys()

  // The DP's frontier with its keys as they stood when it was complete, and
  // the next one.
  private var front    = new Array[Int](g.n)
  private val frontKey = new Array[Int](g.n)
  private var next     = new Array[Int](g.n)

  // counts(c): contributions equal to c below an H-index count's bound.
  private val counts = new Array[Int](g.n)

  private def nextToken(): Int = { token += 1; token }

  private def noKeys(): Array[Int] = { val a = new Array[Int](g.n); java.util.Arrays.fill(a, -1); a }

  /** Order-0 values from the index: ``hval(e)`` is set to the h-support of
    * each edge ``e`` in ``from until until``. ``ball(u)`` is marked once per
    * run of edges with source ``u``; each edge then counts the marked
    * vertices of ``ball(v)`` other than ``u`` and ``v``.
    */
  def storeSupports(index: BallIndex, from: Int, until: Int, hval: Array[Int]): Unit = {
    val vert   = index.ballVert
    var marked = -1
    var t      = 0
    var e = from
    while (e < until) {
      val u = g.edgeSrc(e)
      if (u != marked) {
        t = nextToken()
        var j = index.start(u)
        val end = index.end(u)
        while (j < end) { stamp(vert(j)) = t; j += 1 }
        marked = u
      }
      var count = 0
      var j = index.start(g.edgeDst(e)) + 1
      val end = index.end(g.edgeDst(e))
      while (j < end) {
        val w = vert(j)
        if (w != u && stamp(w) == t) count += 1
        j += 1
      }
      hval(e) = count
      e += 1
    }
  }

  /** Hop-bounded maximin path keys (Algorithm 3's BFS/DP) from ``root``
    * into ``key``, which holds -1 over ``ball_h(root)``: for every ball
    * vertex ``w``, ``key(w) = max over paths p from root to w with |p| <= h
    * of min over edges e in p of hval(e)``. After sweep ``d`` each key is
    * the best over paths of at most ``d + 1`` hops. Sweep ``d`` pushes only
    * from the vertices whose key rose in sweep ``d - 1``, with their keys
    * as they stood at its end, so no key gains more than one hop per
    * sweep; every other vertex pushed the same key in an earlier sweep, and
    * every neighbour of the frontier lies in the ball. A sweep that raises
    * no key leaves an empty frontier, so the DP stops there, and its sweeps
    * are bounded by the ball's depth rather than by ``h``. The caller
    * resets ``key`` to -1 over the ball.
    */
  private def maximinKeys(root: Int, h: Int, hval: Array[Int], key: Array[Int]): Unit = {
    key(root) = Int.MaxValue
    front(0) = root
    frontKey(0) = Int.MaxValue
    var size = 1
    var d = 0
    while (d < h && size > 0) {
      var nNext = 0
      var i = 0
      while (i < size) {
        val x   = front(i)
        val kx  = frontKey(i)
        var p   = g.offsets(x)
        val end = g.offsets(x + 1)
        while (p < end) {
          val he   = hval(g.adjEdge(p))
          val cand = if (kx < he) kx else he
          val y    = g.adjVert(p)
          if (cand > key(y)) {
            key(y) = cand
            if (dist(y) != -1) { dist(y) = -1; next(nNext) = y; nNext += 1 }
          }
          p += 1
        }
        i += 1
      }
      i = 0
      while (i < nNext) { val y = next(i); frontKey(i) = key(y); dist(y) = 0; i += 1 }
      val tmp = front; front = next; next = tmp
      size = nNext
      d += 1
    }
  }

  private def resetKeys(ball: Array[Int], from: Int, until: Int, key: Array[Int]): Unit = {
    var j = from
    while (j < until) { key(ball(j)) = -1; j += 1 }
  }

  /** BFS from ``src`` into ``order``, then the maximin DP over that ball
    * into ``key``; returns the ball size.
    */
  private def bfsKeys(src: Int, h: Int, hval: Array[Int], order: Array[Int], key: Array[Int]): Int = {
    val cnt = g.bfs(src, h, null, stamp, nextToken(), dist, order)
    maximinKeys(src, h, hval, key)
    cnt
  }

  /** Zeroes the counts below ``bound``, an H-index count's bound. */
  private def clearCounts(bound: Int): Unit = if (bound > 0) java.util.Arrays.fill(counts, 0, bound, 0)

  /** The H-index of a count bounded by ``bound``, with ``top``
    * contributions at least ``bound``.
    */
  private def countedHIndex(bound: Int, top: Int): Int =
    if (bound <= 0) 0 else HIndex.countDown(counts, bound, top)

  /** One Algorithm-3 step for one edge, the Spark engine's kernel: the
    * next-order H-index of edge ``e`` given the current per-edge keys
    * ``hval``, capped by ``cap`` (the previous value — the sequence is
    * non-increasing by Theorem 1). Rebuilds both endpoints' balls and keys.
    */
  def computeHIndex(e: Int, h: Int, hval: Array[Int], cap: Int): Int = {
    val u = g.edgeSrc(e)
    val v = g.edgeDst(e)
    val cntU  = bfsKeys(u, h, hval, orderU, keyU)
    val cntV  = bfsKeys(v, h, hval, orderV, keyV)
    val bound = math.min(cap, cntU - 2)
    clearCounts(bound)
    var top = 0
    var i = 0
    while (i < cntU && top < bound) {
      val w  = orderU(i)
      val kv = keyV(w)
      if (kv >= 0 && w != u && w != v) {
        val ku = keyU(w)
        val c  = if (ku < kv) ku else kv
        if (c >= bound) top += 1 else counts(c) += 1
      }
      i += 1
    }
    resetKeys(orderU, 0, cntU, keyU)
    resetKeys(orderV, 0, cntV, keyV)
    countedHIndex(bound, top)
  }

  /** Count pass of [[BallIndex]] construction: ``|ball_h(v)|``. */
  def ballSize(v: Int, h: Int): Int = g.bfs(v, h, null, stamp, nextToken(), dist, orderU)

  /** Fill pass of [[BallIndex]] construction: copies ``ball_h(v)`` in BFS
    * order into ``index.ballVert`` from ``index.start(v)`` and sets
    * ``index.nearEnd(v)``, the start of its rim at distance ``h``.
    */
  def fillBall(v: Int, index: BallIndex): Unit = {
    val cnt   = g.bfs(v, index.h, null, stamp, nextToken(), dist, orderU)
    val start = index.start(v)
    System.arraycopy(orderU, 0, index.ballVert, start, cnt)
    var j = cnt
    while (j > 0 && dist(orderU(j - 1)) == index.h) j -= 1
    index.ballOff(2 * v + 1) = start + j
  }

  /** Rewrites ``v``'s stored keys from the values ``hval``. */
  def storeKeys(v: Int, index: BallIndex, hval: Array[Int]): Unit = {
    maximinKeys(v, index.h, hval, keyV)
    index.store(v, keyV)
    resetKeys(index.ballVert, index.start(v), index.end(v), keyV)
  }

  /** A round's edge phase over the edges ``from until until`` that
    * ``active`` holds: [[computeHIndex]] of each edge ``e = (u, v)`` over
    * the values ``hval`` with cap ``hval(e)``, from the keys of its
    * endpoints; sets ``out(e)`` to the value where it is below the cap.
    * Edges are sorted by source, so ``u``'s keys are put in a dense buffer
    * once per run of its edges; each edge then scans ``v``'s stored keys,
    * rewritten first from ``hval``, which leaves them fresh, if they are
    * [[BallIndex.stale]], and stops once the count reaches its bound.
    *
    * A synchronous round reads the round-start copy of the values and
    * writes ``out``, a different array; an asynchronous round (``live =
    * true``) reads and writes the live values. ``u``'s keys are rebuilt
    * from ``hval`` and stored if the round is live or they are stale, and
    * loaded from the store otherwise. Other threads may be rewriting the
    * keys read here: under a synchronous round they write the same keys,
    * and since values only fall, under an asynchronous one every key read
    * is at least the key of the current values.
    */
  def storeHIndices(index: BallIndex, from: Int, until: Int, active: java.util.BitSet, hval: Array[Int],
                    out: Array[Int], live: Boolean): Unit = {
    val vert = index.ballVert
    val keys = index.keys
    var loaded = -1
    var e = from
    while (e < until) {
      if (active.get(e)) {
        val u = g.edgeSrc(e)
        if (u != loaded) {
          if (loaded >= 0) resetKeys(vert, index.start(loaded), index.end(loaded), keyU)
          if (live || index.stale(u)) { maximinKeys(u, index.h, hval, keyU); index.store(u, keyU) }
          else {
            var j = index.start(u)
            val end = index.end(u)
            while (j < end) { keyU(vert(j)) = keys(j); j += 1 }
          }
          loaded = u
        }
        val v = g.edgeDst(e)
        if (index.stale(v)) storeKeys(v, index, hval)
        val cap   = hval(e)
        val end   = index.end(v)
        var j     = index.start(v) + 1
        // Contributions come from ball(v) without v and u.
        val bound = math.min(cap, end - j - 1)
        clearCounts(bound)
        var top = 0
        while (j < end && top < bound) {
          val w  = vert(j)
          val ku = keyU(w)
          if (ku >= 0 && w != u) {
            val kv = keys(j)
            val c  = if (ku < kv) ku else kv
            if (c >= bound) top += 1 else counts(c) += 1
          }
          j += 1
        }
        val nh = countedHIndex(bound, top)
        if (nh < cap) out(e) = nh
      }
      e += 1
    }
    if (loaded >= 0) resetKeys(vert, index.start(loaded), index.end(loaded), keyU)
  }

  /** End-of-round walk from ``root``, an endpoint of edges changed in the
    * round from at most ``old`` to at least ``nw``, over the vertices ``z``
    * within ``h - 1`` hops of it, read from ``index``: marks ``z``'s keys
    * stale ([[BallIndex.markStale]]) and, when ``next`` is given, sets in it
    * each edge ``f`` at ``z`` with ``nw < hval(f) <= old`` (Lemma-4
    * activation). A keyed index limits both to the ``z`` whose stored key
    * from ``root`` exceeds ``nw``: stored keys only overestimate, and a
    * change at ``root`` lowers a key or value at ``z`` only through a best
    * path from ``z`` to ``root`` that keeps a key above ``nw`` (DESIGN.md,
    * "Local engine design").
    */
  def walk(root: Int, index: BallIndex, hval: Array[Int], old: Int, nw: Int, next: java.util.BitSet): Unit = {
    val ball  = index.ballVert
    val keys  = index.keys
    val until = index.nearEnd(root)
    var j = index.start(root)
    while (j < until) {
      if (keys == null || keys(j) > nw) {
        val z = ball(j)
        index.markStale(z)
        if (next != null) {
          var i = g.offsets(z)
          val end = g.offsets(z + 1)
          while (i < end) {
            val f = g.adjEdge(i)
            if (nw < hval(f) && hval(f) <= old) next.set(f)
            i += 1
          }
        }
      }
      j += 1
    }
  }

  /** Visit every vertex within ``depth`` hops of ``src`` (including ``src``)
    * over ``alive`` edges, applying ``f``. Only the benchmark's layer
    * probes call it, to time a walk over every vertex's ``h - 1`` ball.
    */
  def forEachBallVertex(src: Int, depth: Int, alive: java.util.BitSet)(f: Int => Unit): Unit = {
    val cnt = g.bfs(src, depth, alive, stamp, nextToken(), dist, orderU)
    var i = 0
    while (i < cnt) { f(orderU(i)); i += 1 }
  }
}
