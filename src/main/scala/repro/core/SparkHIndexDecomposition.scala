package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.LocalGraph

/** Distributed H-index decomposition engine: Algorithms 2–3 as the local
  * engine's round loop ([[LocalHIndexDecomposition]]) on the driver, whose
  * edge phase is one Spark job per round of the shared single-edge kernel
  * [[HopScratch.computeHIndex]] (subgraph-centric BSP, as in Tian et al.,
  * "From 'Think Like a Vertex' to 'Think Like a Graph'", PVLDB 2013: the
  * superstep driver is generic and only the per-partition compute is
  * distributed).
  *
  * The canonical edges are collected once into a [[LocalGraph]] whose CSR
  * is broadcast once per decomposition, so the graph must fit on the driver
  * and on every executor; partitions that carry only their h-hop halo are
  * not implemented. The driver also holds the local engine's
  * [[BallIndex]], under the same cap of a quarter of the maximum heap, and
  * a graph whose index is larger is rejected with the bytes it needs. No
  * edge phase here reads keys, so the index has none: 4 bytes per ball
  * entry rather than 8. From the index the driver takes the
  * order-0 values (h-supports), the change detection, the Lemma-4 walk, the
  * clamp of ``h`` to ``max(1, n - 1)`` and the stop rules, exactly as in the
  * local engine's synchronous rounds. Each round's edge phase broadcasts
  * the round-start values and runs one ``mapPartitions`` job over the ids
  * of the active edges, in ``defaultParallelism`` slices: each task builds
  * one [[HopScratch]] and returns only the ``(edge, value)`` pairs its
  * edges lowered, which the driver applies. Every task reads the previous
  * round's values, so a round is a Jacobi step.
  *
  * Modes (the paper's variants that exist in a BSP engine; Asyn's
  * shared-memory asynchrony does not, so Fig. 6 is reproduced by the local
  * engine):
  *  - [[SparkHIndexDecomposition.Sync]] — Paral: every edge recomputed from
  *    the previous round's values; values and rounds equal the local
  *    engine's ``LocalHIndexConfig()``.
  *  - [[SparkHIndexDecomposition.Pruned]] — Paral+: Sync plus Lemma-4
  *    active-set pruning by the driver's walk; values and rounds equal
  *    ``LocalHIndexConfig(pruning = true)``.
  *
  * The deadline is checked on the driver before each job and by the
  * driver's parallel loops. A decomposition runs one job per round, and an
  * empty graph none after the edge collect.
  */
object SparkHIndexDecomposition {

  /** Update-schedule variants. */
  sealed trait Mode
  /** Paral: synchronous Jacobi rounds. */
  case object Sync extends Mode
  /** Paral+: [[Sync]] rounds recomputing only the Lemma-4 active set. */
  case object Pruned extends Mode

  /** Decomposition output: ``trussness`` with schema
    * ``(eid BIGINT, src INT, dst INT, trussness INT)``, the number of
    * rounds run and whether the values reached the fixpoint; a run cut at
    * ``maxRounds`` before that has ``converged = false``.
    */
  final case class Result(trussness: DataFrame, rounds: Int, converged: Boolean)

  /** Run the decomposition over a canonical edge DataFrame
    * (``src, dst, eid`` — see [[repro.graph.EdgeList]]); bad arguments
    * fail before any job runs.
    */
  def decompose(edges: DataFrame, h: Int, mode: Mode = Sync, maxRounds: Int = LocalHIndexConfig().maxRounds,
                deadlineNanos: Long = Long.MaxValue): Result = {
    require(h >= 1, s"need h >= 1, got $h")
    require(maxRounds >= 0, s"need maxRounds >= 0, got $maxRounds")
    val spark  = edges.sparkSession
    val sc     = spark.sparkContext
    val g      = LocalGraph.fromDataFrame(edges)
    val config = LocalHIndexConfig(threads = Runtime.getRuntime.availableProcessors, pruning = mode == Pruned,
                                   maxRounds = maxRounds, deadlineNanos = deadlineNanos)
    val graph  = sc.broadcast(g)
    val phase: LocalHIndexDecomposition.EdgePhase = (hop, active, hval, out) => {
      Budget.check(deadlineNanos)
      val values = sc.broadcast(hval)
      try {
        // An unboxed copy of the ids, which Spark cuts into unboxed slices.
        val ids = active.stream().toArray.toIndexedSeq
        val lowered = sc.parallelize(ids, sc.defaultParallelism).mapPartitions { it =>
          val vs      = values.value
          val scratch = new HopScratch(graph.value)
          it.map(e => (e, scratch.computeHIndex(e, hop, vs, vs(e)))).filter { case (e, nh) => nh < vs(e) }
        }.collect()
        for ((e, nh) <- lowered) out(e) = nh
      } finally values.destroy()
    }
    val res = try LocalHIndexDecomposition.run(g, h, config, edgePhase = Some(phase)) finally graph.destroy()
    val rows = (0 until g.m).map(e => (g.eids(e), g.label(g.edgeSrc(e)), g.label(g.edgeDst(e)), res.trussness(e)))
    Result(spark.createDataFrame(rows).toDF("eid", "src", "dst", "trussness"), res.rounds, res.converged)
  }

  /** Hop-bounded maximin reachable-path keys: ``P(a, b)`` for all ordered
    * pairs within ``h`` hops, given current per-edge keys. ``h`` DP steps:
    * ``P_d = max(P_{d-1}, extend-by-one-edge(P_{d-1}))``.
    */
  private[core] def pathKeys(hdf: DataFrame, adj: DataFrame, h: Int): DataFrame = {
    val edgesH = adj.join(hdf.select("eid", "hval"), "eid")
      .select(col("a"), col("b"), col("hval"))
    var p = edgesH.select(col("a"), col("b"), col("hval") as "p")
    var d = 2
    while (d <= h) {
      val step = p.alias("p")
        .join(edgesH.alias("e"), col("p.b") === col("e.a"))
        .select(col("p.a") as "a", col("e.b") as "b", least(col("p.p"), col("e.hval")) as "p")
        .where(col("a") =!= col("b"))
      p = p.unionAll(step).groupBy("a", "b").agg(max(col("p")) as "p")
      d += 1
    }
    p
  }
}
