package repro.core

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._
import repro.graph.LocalGraph

/** Shared-memory parallel H-index decomposition engine (Algorithms 2–3 with
  * the Section 4.3 optimizations), mirroring the paper's OpenMP setting.
  *
  * Every round runs over a [[BallIndex]] built once per decomposition,
  * which stores each vertex's maximin keys. A round is one parallel edge
  * phase ([[HopScratch.storeHIndices]]), which rewrites only the keys it
  * needs that are stale, followed by a walk from the endpoints of the
  * changed edges that marks stale the keys those changes can lower: those
  * of the vertices within h-1 hops whose stored key from the endpoint
  * exceeds the new value. A graph whose index would take more
  * than a quarter of the maximum heap is rejected before the index is
  * allocated.
  *
  * This is the one round loop of both engines: the Spark engine
  * ([[SparkHIndexDecomposition]]) runs it on the driver and replaces only
  * the edge phase, by a Spark job of [[HopScratch.computeHIndex]], which
  * rebuilds both endpoints' keys for one edge; that kernel is also the
  * reference the tests hold the indexed rounds to. Supports, change
  * detection, the walk, pruning and the stop rules are shared.
  *
  * Variants, selected by [[LocalHIndexConfig]]:
  *  - '''Single''': ``threads = 1, async = false, pruning = false``
  *  - '''Paral''':  ``threads = T, async = false, pruning = false`` —
  *    synchronous rounds; every edge's order-n value is computed from the
  *    order-(n-1) values, which each round copies before its edge phase
  *    and reads from that copy. The edge phase rewrites the stale keys it
  *    meets from the copy and loads the rest from the index.
  *  - '''Asyn''':   ``async = true`` — threads read the live shared value
  *    array, so later edges in a round see already-updated same-round values
  *    (Section 4.1 shows this preserves monotonicity and the fixpoint). The
  *    worker rebuilds each source's keys from the live values and rewrites
  *    a destination's stored keys on first use if they are stale; stale
  *    keys only ever lag behind changes made within the same round.
  *  - '''Paral+''': ``async = true, pruning = true`` — additionally skips
  *    edges none of whose dependencies changed in a way that can lower their
  *    value (Lemma 4: a drop of e' from old to new affects H(e) only when
  *    ``new < H(e) <= old``). The end-of-round walk activates those edges
  *    at the vertices it marks.
  *    With ``async = false`` the pruned rounds are synchronous.
  *
  * Every parallel loop, the walk included, hands out fixed-size slices of
  * edges, vertices or walk roots from a shared cursor. The maximin DPs
  * push only from the frontier of keys raised in the last sweep and stop
  * when it is empty, and each H-index count stops at its cap (see
  * [[HopScratch]]).
  *
  * Determinism: the final trussness vector is the unique fixpoint and is
  * identical across variants and thread counts. Synchronous rounds are
  * Jacobi steps, so their values and round counts are too, at every
  * ``maxRounds``; only the round count of the async variants may vary with
  * scheduling.
  */
final case class LocalHIndexConfig(
    threads: Int = 1,
    async: Boolean = false,
    pruning: Boolean = false,
    maxRounds: Int = 1 << 20,
    deadlineNanos: Long = Long.MaxValue,
)

/** Result of a decomposition run: per-edge h-trussness (CSR edge order),
  * the number of full sweeps run (the paper's Fig. 6 metric; includes the
  * final no-change sweep for the unpruned variants) and whether the values
  * reached the fixpoint. A run cut at ``maxRounds`` before that has
  * ``converged = false``, and its values are upper bounds, not trussness.
  */
final case class LocalHIndexResult(trussness: Array[Int], rounds: Int, converged: Boolean)

object LocalHIndexDecomposition {

  /** Edges, vertices or roots a worker takes from the shared cursor at a time. */
  private val Slice = 16

  /** Body of a parallel loop over one slice, ``apply(thread, from, until)``:
    * a class rather than a ``Function3``, whose ``Int`` arguments are boxed.
    */
  private abstract class SliceBody { def apply(t: Int, from: Int, until: Int): Unit }

  /** Longest array the JVM allocates. */
  private val MaxArray = Int.MaxValue - 8

  /** A round's edge phase, ``apply(h, active, read, out)``: sets
    * ``out(e)`` to the next-order value of each edge ``e`` that ``active``
    * holds, computed at hop threshold ``h`` from the values ``read``, where
    * it is below ``read(e)``. [[run]] passes the clamped ``h`` and, for a
    * synchronous round, the round-start copy as ``read``.
    */
  private[core] trait EdgePhase {
    def apply(h: Int, active: java.util.BitSet, read: Array[Int], out: Array[Int]): Unit
  }

  /** Run the decomposition of graph ``g`` at hop threshold ``h``. The
    * [[BallIndex]] may take at most a quarter of the maximum heap; a graph
    * whose index would be larger is rejected with an
    * ``IllegalArgumentException`` that gives the bytes needed.
    */
  def decompose(g: LocalGraph, h: Int, config: LocalHIndexConfig = LocalHIndexConfig()): LocalHIndexResult =
    run(g, h, config)

  /** [[decompose]] with at most ``storeBytes`` bytes for the ball index,
    * whose rounds run ``edgePhase`` if given and otherwise
    * [[HopScratch.storeHIndices]] on ``config.threads`` threads. Only the
    * latter reads keys: with an ``edgePhase``, or no rounds, there are none.
    */
  private[core] def run(g: LocalGraph, hop: Int, config: LocalHIndexConfig,
                        storeBytes: Long = Runtime.getRuntime.maxMemory / 4,
                        edgePhase: Option[EdgePhase] = None): LocalHIndexResult = {
    require(hop >= 1, s"need h >= 1, got $hop")
    require(config.threads >= 1, s"need threads >= 1, got ${config.threads}")
    require(config.maxRounds >= 0, s"need maxRounds >= 0, got ${config.maxRounds}")
    val m = g.m
    if (m == 0) return LocalHIndexResult(new Array[Int](0), 0, converged = true)
    // No shortest path, and no maximin key's best path, has more than n - 1
    // hops, so a larger h changes no ball and no value.
    val h = math.min(hop, math.max(1, g.n - 1))

    val nThreads = math.min(config.threads, m)
    val pool     = Executors.newFixedThreadPool(nThreads)
    try {
      val scratches = Array.fill(nThreads)(new HopScratch(g))

      // Runs body(thread, from, until) over slices covering 0 until count.
      // Threads take fixed-size slices from a shared cursor, so a thread
      // that drew cheap edges or vertices takes more of them.
      def forSlices(count: Int)(body: SliceBody): Unit = {
        val cursor = new AtomicInteger(0)
        val tasks = (0 until nThreads).map { t =>
          new Callable[Unit] {
            def call(): Unit = {
              var from = cursor.getAndAdd(Slice)
              while (from < count) {
                Budget.check(config.deadlineNanos)
                body(t, from, math.min(count, from + Slice))
                from = cursor.getAndAdd(Slice)
              }
            }
          }
        }
        pool.invokeAll(tasks.asJava).asScala.foreach { fut =>
          try fut.get()
          catch {
            // Surface the worker's own exception (e.g. Budget.Exceeded).
            case e: java.util.concurrent.ExecutionException if e.getCause != null =>
              throw e.getCause
          }
        }
      }
      def forAll(count: Int)(body: (Int, Int) => Unit): Unit =
        forSlices(count) { (t, from, until) =>
          var i = from
          while (i < until) { body(t, i); i += 1 }
        }

      // Every round shares per-vertex keys through a ball index built once
      // by two parallel BFS passes: the ball sizes, then the balls. Nothing
      // that grows with the index is allocated before its size is checked.
      val ballSize = new Array[Int](g.n)
      forAll(g.n)((t, v) => ballSize(v) = scratches(t).ballSize(v, h))
      var entries  = 0L
      for (size <- ballSize) entries += size
      val offLen   = 2L * g.n + 1
      val keyed    = edgePhase.isEmpty && config.maxRounds > 0
      val bytes    = (if (keyed) 8 else 4) * entries + 4 * offLen + 4L * g.n
      require(entries <= MaxArray && offLen <= MaxArray && bytes <= storeBytes,
        s"the ball index at h=$h needs $bytes bytes in arrays of up to ${math.max(entries, offLen)} " +
          s"entries; the cap is $storeBytes bytes and $MaxArray entries per array")
      val index = new BallIndex(h, ballSize, keyed)
      forAll(g.n)((t, v) => scratches(t).fillBall(v, index))

      // Order-0 values: h-supports, computed in parallel (Alg. 2 lines 1-3).
      // Each round starts by copying the values into hprev. A synchronous
      // round reads that copy, an asynchronous one the live values in hcur;
      // both write the lowered values into hcur.
      val hcur  = new Array[Int](m)
      val hprev = new Array[Int](m)
      forSlices(m)((t, from, until) => scratches(t).storeSupports(index, from, until, hcur))
      val read = if (config.async) hcur else hprev
      val phase = edgePhase.getOrElse[EdgePhase] { (_, active, hval, out) =>
        forSlices(m) { (t, from, until) =>
          scratches(t).storeHIndices(index, from, until, active, hval, out, config.async)
        }
      }

      // Reused across rounds: the edges each thread's share of the Lemma-4
      // walk activates, and the roots of the walk with their merged drops.
      val nexts   = Array.fill(nThreads)(new java.util.BitSet(m))
      val rootSet = new java.util.BitSet(g.n)
      val roots   = new Array[Int](g.n)
      val oldMax  = new Array[Int](g.n)
      val newMin  = new Array[Int](g.n)

      val active = new java.util.BitSet(m); active.set(0, m)
      var rounds = 0
      var done   = false
      while (!done && rounds < config.maxRounds) {
        rounds += 1
        System.arraycopy(hcur, 0, hprev, 0, m)
        phase(h, active, read, hcur)
        // The changed edges e' are the active edges whose value fell from
        // old = hprev(e') to new = hcur(e'). The end-of-round walk runs
        // from both endpoints of each over the vertices within h-1 hops,
        // whose keys e' enters: their stored keys become stale and, under
        // pruning, Lemma 4 activates the edges there whose current value
        // the drop crossed (new < H(f) <= old). Changed edges sharing a
        // root vertex are merged (max old, min new) before the walk — a
        // sound conservative superset that turns O(|changed|) ball walks
        // into O(|distinct roots|), which matters on hub-heavy graphs where
        // one vertex carries thousands of changed edges.
        var changed = false
        var e = active.nextSetBit(0)
        while (e >= 0) {
          val old = hprev(e)
          val nw  = hcur(e)
          if (nw != old) {
            changed = true
            var side = 0
            while (side < 2) {
              val root = if (side == 0) g.edgeSrc(e) else g.edgeDst(e)
              if (!rootSet.get(root)) { rootSet.set(root); oldMax(root) = old; newMin(root) = nw }
              else {
                if (old > oldMax(root)) oldMax(root) = old
                if (nw < newMin(root)) newMin(root) = nw
              }
              side += 1
            }
          }
          e = active.nextSetBit(e + 1)
        }
        if (changed) {
          var nRoots = 0
          var root   = rootSet.nextSetBit(0)
          while (root >= 0) { roots(nRoots) = root; nRoots += 1; root = rootSet.nextSetBit(root + 1) }
          rootSet.clear()
          forSlices(nRoots) { (t, from, until) =>
            val next = if (config.pruning) nexts(t) else null
            var i = from
            while (i < until) {
              val r = roots(i)
              scratches(t).walk(r, index, hcur, oldMax(r), newMin(r), next)
              i += 1
            }
          }
        }
        if (config.pruning) {
          active.clear()
          for (next <- nexts) { active.or(next); next.clear() }
          done = active.isEmpty
        } else {
          done = !changed
        }
      }
      LocalHIndexResult(hcur.map(_ + 2), rounds, converged = done)
    } finally pool.shutdown()
  }
}
