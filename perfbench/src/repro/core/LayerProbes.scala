package repro.core

import repro.graph.LocalGraph

/** The traced run's probes of the local layers, each timing calls into one
  * layer's public functions on the workload's graph from outside the
  * program: the CSR graph (``bfs``), h-support, the H-index kernel, the
  * local engine (through ``maxRounds``) and the Lemma-4 activation walk.
  */
object LayerProbes {
  private val Reps = 3

  /** Receives the probe loops' results, so the JIT cannot drop the loops. */
  @volatile var consumed = 0L

  def measure(g: LocalGraph, h: Int, config: LocalHIndexConfig, trace: Trace, r: Report): Unit = {
    import PerfBench.median
    def repeat[A](name: String)(f: => A): A = (1 to Reps).map(_ => trace(name)(f)).last
    def med(name: String) = median(trace.seconds(name))
    var sink = 0L

    // Ball sizes and the kernel's relaxations, counted with bfs: the
    // maximin DP scans the adjacency of every ball vertex but the root, h
    // times, from both endpoints of the edge.
    val stamp   = new Array[Int](g.n)
    val dist    = new Array[Int](g.n)
    val order   = new Array[Int](g.n)
    val ballAdj = new Array[Long](g.n)
    var ballSum = 0L
    var v = 0
    while (v < g.n) {
      val cnt = g.bfs(v, h, null, stamp, v + 1, dist, order)
      ballSum += cnt - 1
      var i = 1
      while (i < cnt) { ballAdj(v) += g.degree(order(i)); i += 1 }
      v += 1
    }
    var relax = 0L
    var e = 0
    while (e < g.m) { relax += h * (ballAdj(g.edgeSrc(e)) + ballAdj(g.edgeDst(e))); e += 1 }
    r.add("graph.ball_h_sum", ballSum.toDouble, "count", "computed: sum over v of |ball_h(v)|")
    r.add("kernel.relax_per_edge", relax.toDouble / g.m, "count",
          "computed: h x ball adjacency entries per computeHIndex call")

    val sup0 = repeat("support")(HSupport.local(g, h))
    r.add("support.s", med("support"), "s", "HSupport.local, 1 thread")
    r.add("support.sum", sup0.map(_.toLong).sum.toDouble, "count")

    val scratch = new HopScratch(g)
    repeat("kernel.sweep") {
      var e = 0
      while (e < g.m) { sink += scratch.computeHIndex(e, h, sup0, sup0(e)); e += 1 }
    }
    r.add("kernel.ns_per_edge", med("kernel.sweep") * 1e9 / g.m, "ns",
          "computeHIndex with hval = cap = support, 1 thread")

    // H-index inputs sized like the supports (values in 0..sup), on a
    // stride of edges that keeps them to a few million values.
    val total   = sup0.map(_.toLong).sum
    val stride  = math.max(1L, total / 4000000L).toInt
    val rng     = new java.util.Random(1L)
    val inputs  = (0 until g.m by stride).map(e => Array.fill(sup0(e))(rng.nextInt(sup0(e) + 1)))
    val passes  = math.max(1L, 4000000L / (inputs.map(_.length.toLong).sum + inputs.length)).toInt
    repeat("hindex.pass") {
      var p = 0
      while (p < passes) {
        var i = 0
        while (i < inputs.length) { val a = inputs(i); sink += HIndex.boundedHIndex(a, a.length, a.length); i += 1 }
        p += 1
      }
    }
    r.add("hindex.ns_per_call", med("hindex.pass") * 1e9 / (passes.toLong * inputs.length), "ns",
          "boundedHIndex, arrays sized like the supports")

    // The engine, with the workload's configuration, cut short by maxRounds.
    val threads = config.threads
    def decompose(t: Int, maxRounds: Int) =
      LocalHIndexDecomposition.decompose(g, h, config.copy(threads = t, maxRounds = maxRounds))
    repeat("engine.rounds0")(decompose(threads, 0))
    repeat("engine.rounds1")(decompose(threads, 1))
    repeat("engine.rounds0.t1")(decompose(1, 0))
    repeat("engine.rounds1.t1")(decompose(1, 1))
    val cpu0   = PerfBench.cpuNanos()
    val rounds = (1 to Reps).map(_ => trace("engine.full")(decompose(threads, config.maxRounds)).rounds.toDouble)
    val cpu    = (PerfBench.cpuNanos() - cpu0) / 1e9
    val support = med("engine.rounds0")
    val round1  = med("engine.rounds1") - support
    val round1t1 = med("engine.rounds1.t1") - med("engine.rounds0.t1")
    r.add("engine.support_s", support, "s", s"maxRounds = 0, $threads threads")
    r.add("engine.round1_s", round1, "s", "computed: maxRounds = 1 minus maxRounds = 0")
    r.add("engine.rounds", median(rounds), "count", s"median of $Reps; range ${rounds.min}..${rounds.max}")
    r.add("engine.rounds_spread", rounds.max - rounds.min, "count")
    r.add("engine.round_mean_s", (med("engine.full") - support) / median(rounds), "s",
          "computed: (full - support) / rounds")
    r.add("engine.parallel_eff", round1t1 / (threads * round1), "ratio",
          s"computed: round 1 on 1 thread / ($threads x round 1 on $threads threads)")
    r.add("engine.cpu_util", cpu / (trace.seconds("engine.full").sum * threads), "ratio",
          s"CPU seconds / (wall seconds x $threads), full decompositions")

    val act = new HopScratch(g)
    repeat("activation.walk") {
      var v = 0
      while (v < g.n) {
        act.forEachBallVertex(v, h - 1, null) { z =>
          var i   = g.offsets(z)
          val end = g.offsets(z + 1)
          while (i < end) { sink += sup0(g.adjEdge(i)); i += 1 }
        }
        v += 1
      }
    }
    r.add("activation.walk_s", med("activation.walk"), "s",
          "forEachBallVertex(v, h-1) + adjacency scan from every vertex, 1 thread")
    consumed = sink
  }
}
