package repro.core

import repro.graph.LocalGraph

/** Static h-ball index of a [[LocalGraph]] plus one maximin key per entry:
  * the per-vertex key store every round of the local engine shares (see
  * [[HopScratch]]). The engine builds it once per decomposition, in every
  * mode: ``ballSize(v) = |ball_h(v)|`` sizes it, and [[HopScratch.fillBall]]
  * fills in each ball and its shell offsets.
  *
  * ``shellOff(v * (h + 1) + k)``, ``k = 0 .. h``, is the start in
  * ``ballVert`` of the vertices at distance exactly ``k`` from ``v`` (shell
  * 0 is ``v`` itself), so ``ballVert(start(v) until end(v))`` is
  * ``ball_h(v)`` in BFS order and ``ballVert(start(v) until nearEnd(v))``
  * is ``ball_{h-1}(v)``. ``keys(j)`` is the maximin key from ``v`` to
  * ``ballVert(j)``; it is ``null`` unless ``keyed``, since an index whose
  * keys no edge phase reads needs none. Each array holds ``Σ|ball_h(v)|``
  * ints, each ball counting its root: 8 bytes per ball entry in all, or 4
  * without keys.
  *
  * Freshness: ``v``'s keys depend only on the values of edges with an
  * endpoint within ``h - 1`` hops of ``v``. ``touched(v)`` is the last round
  * at whose end such an edge was found changed (0 = none) and
  * ``written(v)`` the last round in which ``v``'s keys were written (0 =
  * never), so the keys may be stale exactly when [[stale]] holds. Rounds
  * count from 1.
  */
final class BallIndex(val h: Int, ballSize: Array[Int], keyed: Boolean) {
  private val n = ballSize.length
  val shellOff = new Array[Int](n * (h + 1) + 1)
  for (v <- 0 until n) shellOff((v + 1) * (h + 1)) = shellOff(v * (h + 1)) + ballSize(v)
  val ballVert = new Array[Int](shellOff(n * (h + 1)))
  val keys     = if (keyed) new Array[Int](ballVert.length) else null

  val touched = new Array[Int](n)
  val written = new java.util.concurrent.atomic.AtomicIntegerArray(n)

  def start(v: Int): Int   = shellOff(v * (h + 1))
  def nearEnd(v: Int): Int = shellOff(v * (h + 1) + h)
  def end(v: Int): Int     = shellOff((v + 1) * (h + 1))

  /** Whether ``v``'s stored keys may differ from keys built from the
    * current values.
    */
  def stale(v: Int): Boolean = touched(v) >= written.get(v)
}

/** Per-thread scratch workspace for h-hop computations on a [[LocalGraph]].
  *
  * Holds a stamped BFS buffer, a BFS order per edge endpoint, two pairs of
  * hop-bounded maximin ("widest path") DP buffers of Algorithm 3, and the
  * contributions and counting buffers of the H-index aggregation — all
  * allocation-free in steady state. One instance per worker thread;
  * instances must not be shared across threads.
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
  * Both maximin DPs make at most ``h`` sweeps, and sweep ``d`` relaxes only
  * the BFS-order prefix at distance ``<= d + 1``, pushing from the prefix
  * at distance ``<= d``: no vertex farther out has a path of ``d + 1`` hops
  * yet, so the ball's rim is never scanned. A DP stops at its first sweep
  * that changes no key. The key buffers hold -1 outside any call, so a
  * vertex outside the ball never contributes.
  */
final class HopScratch(g: LocalGraph) {
  private var token = 0

  private val stamp  = new Array[Int](g.n)
  private val dist   = new Array[Int](g.n)
  private val orderU = new Array[Int](g.n)
  private val orderV = new Array[Int](g.n)

  // The U pair holds an edge phase's source keys; the V pair builds the
  // keys stored for any other vertex.
  private val keyU1 = noKeys()
  private val keyU2 = noKeys()
  private val keyV1 = noKeys()
  private val keyV2 = noKeys()

  // Per-edge DP: ends of the BFS-order prefixes at distance 0 .. h.
  private var ends = new Array[Int](4)
  // Ball size found by the last bfsKeys.
  private var ballCount = 0

  private var contrib = new Array[Int](64)
  private var counts  = new Array[Int](65)

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

  /** Hop-bounded maximin path keys (Algorithm 3's BFS/DP) from the root
    * ``ball(from)`` of a ball listed in BFS order in ``ball(from until
    * ends(endsAt + h))``, where ``ends(endsAt + d)`` ends the prefix at
    * distance ``<= d``: for every ball vertex ``w``, ``key(w) = max over
    * paths p from the root to w with |p| <= h of min over edges e in p of
    * hval(e)``. Sweep ``d`` relaxes the prefix at distance ``<= d + 1`` by
    * pushing from the prefix at distance ``<= d``, the only vertices with a
    * key yet; every neighbour of those lies in the ball. A sweep that
    * changes no key leaves no vertex at distance ``d + 1``, so every later
    * sweep would give the same keys: the DP stops there, and its sweeps are
    * bounded by the ball's depth rather than by ``h``. Returns the one of
    * ``key1``/``key2`` holding the keys; the caller resets both to -1 over
    * the ball.
    */
  private def maximinKeys(ball: Array[Int], from: Int, ends: Array[Int], endsAt: Int, h: Int,
                          hval: Array[Int], key1: Array[Int], key2: Array[Int]): Array[Int] = {
    key1(ball(from)) = Int.MaxValue
    var ka = key1
    var kb = key2
    var changed = true
    var d = 0
    while (d < h && changed) {
      changed = false
      val reach = ends(endsAt + d + 1)
      var j = from
      while (j < reach) { val w = ball(j); kb(w) = ka(w); j += 1 }
      val frontier = ends(endsAt + d)
      j = from
      while (j < frontier) {
        val x   = ball(j)
        val kx  = ka(x)
        var p   = g.offsets(x)
        val end = g.offsets(x + 1)
        while (p < end) {
          val he   = hval(g.adjEdge(p))
          val cand = if (kx < he) kx else he
          val y    = g.adjVert(p)
          if (cand > kb(y)) { kb(y) = cand; changed = true }
          p += 1
        }
        j += 1
      }
      val tmp = ka; ka = kb; kb = tmp
      d += 1
    }
    ka
  }

  private def resetKeys(ball: Array[Int], from: Int, until: Int, key1: Array[Int], key2: Array[Int]): Unit = {
    var j = from
    while (j < until) { val w = ball(j); key1(w) = -1; key2(w) = -1; j += 1 }
  }

  /** BFS from ``src`` into ``order``/``dist``, then the maximin DP over
    * that ball; returns the key buffer and leaves the ball size in
    * ``ballCount``.
    */
  private def bfsKeys(src: Int, h: Int, hval: Array[Int], order: Array[Int],
                      key1: Array[Int], key2: Array[Int]): Array[Int] = {
    val cnt = g.bfs(src, h, null, stamp, nextToken(), dist, order)
    if (ends.length <= h) ends = new Array[Int](h + 1)
    var j = 0
    var d = 0
    while (d <= h) {
      while (j < cnt && dist(order(j)) <= d) j += 1
      ends(d) = j
      d += 1
    }
    ballCount = cnt
    maximinKeys(order, 0, ends, 0, h, hval, key1, key2)
  }

  private def hIndexOfContribs(n: Int, cap: Int): Int = {
    if (counts.length <= n) counts = new Array[Int](contrib.length + 1)
    HIndex.boundedHIndex(contrib, n, cap, counts)
  }

  private def addContrib(n: Int, c: Int): Unit = {
    if (n == contrib.length) contrib = java.util.Arrays.copyOf(contrib, contrib.length * 2)
    contrib(n) = c
  }

  /** One Algorithm-3 step for one edge, the Spark engine's kernel: the
    * next-order H-index of edge ``e`` given the current per-edge keys
    * ``hval``, capped by ``cap`` (the previous value — the sequence is
    * non-increasing by Theorem 1). Rebuilds both endpoints' balls and keys.
    */
  def computeHIndex(e: Int, h: Int, hval: Array[Int], cap: Int): Int = {
    val u = g.edgeSrc(e)
    val v = g.edgeDst(e)
    val keyU = bfsKeys(u, h, hval, orderU, keyU1, keyU2)
    val cntU = ballCount
    val keyV = bfsKeys(v, h, hval, orderV, keyV1, keyV2)
    val cntV = ballCount
    var nContrib = 0
    var i = 0
    while (i < cntU) {
      val w  = orderU(i)
      val kv = keyV(w)
      if (kv >= 0 && w != u && w != v) {
        val ku = keyU(w)
        addContrib(nContrib, if (ku < kv) ku else kv)
        nContrib += 1
      }
      i += 1
    }
    resetKeys(orderU, 0, cntU, keyU1, keyU2)
    resetKeys(orderV, 0, cntV, keyV1, keyV2)
    hIndexOfContribs(nContrib, cap)
  }

  /** Count pass of [[BallIndex]] construction: ``|ball_h(v)|``. */
  def ballSize(v: Int, h: Int): Int = g.bfs(v, h, null, stamp, nextToken(), dist, orderU)

  /** Fill pass of [[BallIndex]] construction: copies ``ball_h(v)`` in BFS
    * order into ``index.ballVert`` from ``index.start(v)`` and sets the
    * start of each of its shells ``1 .. h``.
    */
  def fillBall(v: Int, index: BallIndex): Unit = {
    val h     = index.h
    val cnt   = g.bfs(v, h, null, stamp, nextToken(), dist, orderU)
    val start = index.start(v)
    System.arraycopy(orderU, 0, index.ballVert, start, cnt)
    var j = 0
    var k = 1
    while (k <= h) {
      while (j < cnt && dist(orderU(j)) < k) j += 1
      index.shellOff(v * (h + 1) + k) = start + j
      k += 1
    }
  }

  /** Maximin keys of ``v`` over ``hval``, built in ``key1``/``key2``
    * (which the caller resets) and written into ``index.keys``; records
    * ``v`` as written in ``round``.
    */
  private def buildKeys(v: Int, index: BallIndex, hval: Array[Int], round: Int,
                        key1: Array[Int], key2: Array[Int]): Array[Int] = {
    val vert = index.ballVert
    val from = index.start(v)
    val end  = index.end(v)
    val key  = maximinKeys(vert, from, index.shellOff, v * (index.h + 1) + 1, index.h, hval, key1, key2)
    var j = from
    while (j < end) { index.keys(j) = key(vert(j)); j += 1 }
    index.written.set(v, round)
    key
  }

  /** Rewrites ``v``'s stored keys from the values ``hval`` in ``round``. */
  def storeKeys(v: Int, index: BallIndex, hval: Array[Int], round: Int): Unit = {
    buildKeys(v, index, hval, round, keyV1, keyV2)
    resetKeys(index.ballVert, index.start(v), index.end(v), keyV1, keyV2)
  }

  /** Edge phase of round ``round`` over the edges ``from until until`` that
    * ``active`` holds: [[computeHIndex]] of each edge ``e = (u, v)`` over
    * the values ``hval`` with cap ``hval(e)``, from the keys of its
    * endpoints; sets ``out(e)`` to the value where it is below the cap.
    * Edges are sorted by source, so ``u``'s keys are put in a dense buffer
    * once per run of its edges; each edge then scans ``v``'s stored keys,
    * rewritten first from ``hval`` if they are [[BallIndex.stale]].
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
                    out: Array[Int], round: Int, live: Boolean): Unit = {
    val vert = index.ballVert
    val keys = index.keys
    var keyU   = keyU1
    var loaded = -1
    var e = from
    while (e < until) {
      if (active.get(e)) {
        val u = g.edgeSrc(e)
        if (u != loaded) {
          if (loaded >= 0) resetKeys(vert, index.start(loaded), index.end(loaded), keyU1, keyU2)
          if (live || index.stale(u)) keyU = buildKeys(u, index, hval, round, keyU1, keyU2)
          else {
            var j = index.start(u)
            val end = index.end(u)
            while (j < end) { keyU1(vert(j)) = keys(j); j += 1 }
            keyU = keyU1
          }
          loaded = u
        }
        val v = g.edgeDst(e)
        if (index.stale(v)) storeKeys(v, index, hval, round)
        var n = 0
        var j = index.start(v) + 1
        val end = index.end(v)
        while (j < end) {
          val w  = vert(j)
          val ku = keyU(w)
          if (ku >= 0 && w != u) {
            val kv = keys(j)
            addContrib(n, if (ku < kv) ku else kv)
            n += 1
          }
          j += 1
        }
        val nh = hIndexOfContribs(n, hval(e))
        if (nh < hval(e)) out(e) = nh
      }
      e += 1
    }
    if (loaded >= 0) resetKeys(vert, index.start(loaded), index.end(loaded), keyU1, keyU2)
  }

  /** End-of-round walk from ``root``, an endpoint of edges changed in
    * ``round`` from at most ``old`` to at least ``nw``, over the vertices
    * ``z`` within ``h - 1`` hops of it, read from ``index``: marks them
    * ``index.touched(z) = round``. When ``next`` is given, it also receives
    * each edge ``f`` at such a ``z`` with ``nw < hval(f) <= old`` (Lemma-4
    * activation).
    */
  def walk(root: Int, index: BallIndex, round: Int, hval: Array[Int], old: Int, nw: Int,
           next: java.util.BitSet): Unit = {
    val ball  = index.ballVert
    val until = index.nearEnd(root)
    var j = index.start(root)
    while (j < until) {
      val z = ball(j)
      index.touched(z) = round
      if (next != null) {
        var i = g.offsets(z)
        val end = g.offsets(z + 1)
        while (i < end) {
          val f = g.adjEdge(i)
          if (nw < hval(f) && hval(f) <= old) next.set(f)
          i += 1
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
