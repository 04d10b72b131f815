package repro.core

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import repro.graph.LocalGraph

/** Shared-memory parallel H-index decomposition engine (Algorithms 2–3 with
  * the Section 4.3 optimizations), mirroring the paper's OpenMP setting.
  *
  * Variants, selected by [[LocalHIndexConfig]]:
  *  - '''Single''': ``threads = 1, async = false, pruning = false``
  *  - '''Paral''':  ``threads = T, async = false, pruning = false`` —
  *    synchronous rounds; every edge's order-n value is computed from the
  *    order-(n-1) values. A synchronous round is two parallel phases over a
  *    [[BallIndex]] built once per decomposition: the vertex phase writes
  *    the maximin keys of every endpoint of an active edge, reading the
  *    order-(n-1) values, and the edge phase combines each edge's two key
  *    vectors, so no snapshot of the values is taken. If the index would
  *    take more than a quarter of the maximum heap, each edge rebuilds its
  *    endpoints' keys instead and the round writes its values at its end.
  *  - '''Asyn''':   ``async = true`` — threads read the live shared key
  *    array, so later edges in a round see already-updated same-round values
  *    (Section 4.1 shows this preserves monotonicity and the fixpoint).
  *  - '''Paral+''': ``async = true, pruning = true`` — additionally skips
  *    edges none of whose dependencies changed in a way that can lower their
  *    value (Lemma 4: a drop of e' from old to new affects H(e) only when
  *    ``new < H(e) <= old``). With ``async = false`` the pruned rounds are
  *    synchronous, and their vertex phase covers only the endpoints of the
  *    active edges.
  *
  * Every parallel loop hands out fixed-size slices of edges or vertices
  * from a shared cursor. The maximin DPs sweep only the BFS-order prefix
  * that can hold a key yet (see [[HopScratch]]).
  *
  * Determinism: the final trussness vector is the unique fixpoint and is
  * identical across variants and thread counts; only the round count of the
  * async variants may vary with scheduling.
  */
final case class LocalHIndexConfig(
    threads: Int = 1,
    async: Boolean = false,
    pruning: Boolean = false,
    maxRounds: Int = 1 << 20,
    deadlineNanos: Long = Long.MaxValue,
)

/** Result of a decomposition run: per-edge h-trussness (CSR edge order) and
  * the number of full sweeps until convergence (the paper's Fig. 6 metric;
  * includes the final no-change sweep for the unpruned variants).
  */
final case class LocalHIndexResult(trussness: Array[Int], rounds: Int)

object LocalHIndexDecomposition {

  /** Edges or vertices a worker takes from the shared cursor at a time. */
  private val Slice = 16

  /** Run the decomposition of graph ``g`` at hop threshold ``h``. A
    * synchronous run builds its [[BallIndex]] only if it takes at most a
    * quarter of the maximum heap.
    */
  def decompose(g: LocalGraph, h: Int, config: LocalHIndexConfig = LocalHIndexConfig()): LocalHIndexResult =
    run(g, h, config, Runtime.getRuntime.maxMemory / 4)

  /** [[decompose]] with at most ``storeBytes`` bytes for the ball index; a
    * synchronous run whose index would be larger recomputes each edge's
    * keys per edge, as an asynchronous run does.
    */
  private[core] def run(g: LocalGraph, h: Int, config: LocalHIndexConfig, storeBytes: Long): LocalHIndexResult = {
    require(h >= 1, s"need h >= 1, got $h")
    require(config.threads >= 1, s"need threads >= 1, got ${config.threads}")
    val m = g.m
    if (m == 0) return LocalHIndexResult(new Array[Int](0), 0)

    val nThreads = math.min(config.threads, m)
    val pool     = Executors.newFixedThreadPool(nThreads)
    try {
      val scratches = Array.fill(nThreads)(new HopScratch(g))

      // Runs body(thread, from, until) over slices covering 0 until count.
      // Threads take fixed-size slices from a shared cursor, so a thread
      // that drew cheap edges or vertices takes more of them.
      def forSlices(count: Int)(body: (Int, Int, Int) => Unit): Unit = {
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

      // Synchronous rounds share per-vertex keys through a ball index built
      // once, if it fits in storeBytes; its count and fill passes are two
      // parallel BFS sweeps.
      val index =
        if (config.async) null
        else {
          val shellOff = new Array[Int](g.n * (h + 1) + 1)
          forAll(g.n)((t, v) => scratches(t).countShells(v, h, shellOff))
          var total = 0L
          var k = 0
          while (k < shellOff.length) {
            val size = shellOff(k); shellOff(k) = total.toInt; total += size; k += 1
          }
          if (total >= Int.MaxValue || 8 * total + 4L * shellOff.length > storeBytes) null
          else {
            val idx = new BallIndex(h, shellOff, new Array[Int](total.toInt))
            forAll(g.n)((t, v) => scratches(t).fillBall(v, idx))
            idx
          }
        }

      // Order-0 values: h-supports, computed in parallel (Alg. 2 lines 1-3).
      val hcur = new Array[Int](m)
      forAll(m)((t, e) => hcur(e) = scratches(t).support(g.edgeSrc(e), g.edgeDst(e), h, null))

      var active = new java.util.BitSet(m); active.set(0, m)
      var rounds = 0
      var done   = false
      while (!done && rounds < config.maxRounds) {
        rounds += 1
        if (index != null) {
          // Vertex phase: the keys of every endpoint of an active edge, from
          // the previous round's values; the edge phase below only reads them.
          val needed = new java.util.BitSet(g.n)
          var e = active.nextSetBit(0)
          while (e >= 0) { needed.set(g.edgeSrc(e)); needed.set(g.edgeDst(e)); e = active.nextSetBit(e + 1) }
          forAll(g.n)((t, v) => if (needed.get(v)) scratches(t).storeKeys(v, index, hcur))
        }
        // Per-thread change logs: (edge, oldValue) pairs for activation.
        val logs = Array.fill(nThreads)(new ArrayBuffer[(Int, Int)]())
        def lower(t: Int, e: Int, nh: Int): Unit = { logs(t) += ((e, hcur(e))); hcur(e) = nh }
        if (index != null) forSlices(m) { (t, from, until) =>
          scratches(t).storeHIndices(index, from, until, active, hcur)((e, nh) => lower(t, e, nh))
        }
        else {
          // Per-edge kernel: an asynchronous round writes each value at
          // once; a synchronous one holds its values back to the round's end.
          val held = if (config.async) null else Array.fill(nThreads)(new ArrayBuffer[(Int, Int)]())
          forAll(m) { (t, e) =>
            if (active.get(e)) {
              val nh = scratches(t).computeHIndex(e, h, hcur, hcur(e))
              if (nh < hcur(e)) { if (held == null) lower(t, e, nh) else held(t) += ((e, nh)) }
            }
          }
          if (held != null) for (t <- 0 until nThreads; (e, nh) <- held(t)) lower(t, e, nh)
        }
        val changed = logs.map(_.length).sum
        if (config.pruning) {
          // Lemma-4 activation: a changed e' = (x, y) can affect only the
          // edges with an endpoint within h-1 hops of x or y, and only if
          // its drop crossed their current value (new < H(f) <= old).
          // Changed edges sharing a root vertex are merged (max old,
          // min new) before the BFS — a sound conservative superset that
          // turns O(|changed|) ball walks into O(|distinct roots|), which
          // matters on hub-heavy graphs where one vertex carries thousands
          // of changed edges.
          val next    = new java.util.BitSet(m)
          val act     = scratches(0)
          val oldMax  = new Array[Int](g.n)
          val newMin  = new Array[Int](g.n)
          val rootSet = new java.util.BitSet(g.n)
          for (log <- logs; (ePrime, old) <- log) {
            val nw = hcur(ePrime)
            var side = 0
            while (side < 2) {
              val root = if (side == 0) g.edgeSrc(ePrime) else g.edgeDst(ePrime)
              if (!rootSet.get(root)) { rootSet.set(root); oldMax(root) = old; newMin(root) = nw }
              else {
                if (old > oldMax(root)) oldMax(root) = old
                if (nw < newMin(root)) newMin(root) = nw
              }
              side += 1
            }
          }
          var root   = rootSet.nextSetBit(0)
          var walked = 0
          while (root >= 0) {
            if ((walked & 63) == 0) Budget.check(config.deadlineNanos)
            walked += 1
            val old = oldMax(root); val nw = newMin(root)
            act.forEachBallVertex(root, h - 1, null) { z =>
              var i = g.offsets(z)
              val end = g.offsets(z + 1)
              while (i < end) {
                val f = g.adjEdge(i)
                if (!next.get(f) && nw < hcur(f) && hcur(f) <= old) next.set(f)
                i += 1
              }
            }
            root = rootSet.nextSetBit(root + 1)
          }
          active = next
          done = next.isEmpty
        } else {
          done = changed == 0
        }
      }
      LocalHIndexResult(hcur.map(_ + 2), rounds)
    } finally pool.shutdown()
  }
}
