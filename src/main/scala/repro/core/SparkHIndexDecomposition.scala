package repro.core

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.LocalGraph

/** Distributed H-index decomposition engine: Algorithms 2–3 as one Spark
  * job per round, whose tasks run the shared single-edge kernel
  * [[HopScratch.computeHIndex]] (subgraph-centric BSP, as in Tian et al.,
  * "From 'Think Like a Vertex' to 'Think Like a Graph'", PVLDB 2013).
  *
  * The canonical edges are collected once into a [[LocalGraph]] whose CSR
  * is broadcast once per decomposition, so the graph must fit on the driver
  * and on every executor; partitions that carry only their h-hop halo are
  * not implemented. ``h`` is clamped to ``max(1, n - 1)``, as in the local
  * engine. The order-0 values are one job of [[HopScratch.support]]. Each
  * round then broadcasts the value vector and runs one ``mapPartitions``
  * job over the edge ids to recompute, in ``defaultParallelism`` slices:
  * each task builds one [[HopScratch]] and returns only the ``(edge,
  * value)`` pairs its edges lowered, which the driver applies. Every task
  * reads the previous round's vector, so a round is a Jacobi step.
  *
  * Modes (the paper's variants that exist in a BSP engine; Asyn's
  * shared-memory asynchrony does not, so Fig. 6 is reproduced by the local
  * engine):
  *  - [[SparkHIndexDecomposition.Sync]] — Paral: every edge recomputed from
  *    the previous round's values.
  *  - [[SparkHIndexDecomposition.Pruned]] — Paral+: Sync plus Lemma-4
  *    active-set pruning on the driver. A changed edge activates the edges
  *    at the vertices within h-1 hops of its endpoints, only when its drop
  *    crosses their current value.
  *
  * The deadline is checked on the driver before each job. An empty graph
  * runs no job after the edge collect and reports 0 rounds.
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
    * (``src, dst, eid`` — see [[repro.graph.EdgeList]]).
    */
  def decompose(edges: DataFrame, h: Int, mode: Mode = Sync, maxRounds: Int = 10000,
                deadlineNanos: Long = Long.MaxValue): Result = {
    require(h >= 1, s"need h >= 1, got $h")
    val spark  = edges.sparkSession
    val sc     = spark.sparkContext
    val g      = LocalGraph.fromDataFrame(edges)
    val values = new Array[Int](g.m)
    def result(rounds: Int, converged: Boolean): Result = {
      val rows = (0 until g.m).map(e => (g.eids(e), g.label(g.edgeSrc(e)), g.label(g.edgeDst(e)), values(e) + 2))
      Result(spark.createDataFrame(rows).toDF("eid", "src", "dst", "trussness"), rounds, converged)
    }
    if (g.m == 0) return result(0, converged = true)
    val hop   = math.min(h, math.max(1, g.n - 1))
    val graph = sc.broadcast(g)
    try {
      // One job over the edge ids ``ids``: the (edge, value) pairs for which
      // ``kernel`` returns a value >= 0.
      def job(ids: Seq[Int])(kernel: (LocalGraph, HopScratch, Int) => Int): Array[(Int, Int)] = {
        Budget.check(deadlineNanos)
        sc.parallelize(ids, sc.defaultParallelism).mapPartitions { it =>
          val local   = graph.value
          val scratch = new HopScratch(local)
          it.map(e => (e, kernel(local, scratch, e))).filter(_._2 >= 0)
        }.collect()
      }

      for ((e, sup) <- job(0 until g.m)((local, s, e) => s.support(local.edgeSrc(e), local.edgeDst(e), hop, null)))
        values(e) = sup

      val walker = new HopScratch(g)
      var active: Seq[Int] = 0 until g.m
      var rounds = 0
      var done   = false
      while (!done && rounds < maxRounds) {
        rounds += 1
        val current = sc.broadcast(values)
        val lowered =
          try job(active) { (_, s, e) =>
            val vs = current.value
            val nh = s.computeHIndex(e, hop, vs, vs(e))
            if (nh < vs(e)) nh else -1
          } finally current.destroy()
        val old = lowered.map { case (e, _) => values(e) }
        for ((e, nh) <- lowered) values(e) = nh
        done = lowered.isEmpty
        if (mode == Pruned && !done) {
          val next = new java.util.BitSet(g.m)
          for (((e, nw), hold) <- lowered.zip(old); root <- Seq(g.edgeSrc(e), g.edgeDst(e)))
            walker.forEachBallVertex(root, hop - 1, null) { z =>
              for (p <- g.offsets(z) until g.offsets(z + 1)) {
                val f = g.adjEdge(p)
                if (nw < values(f) && values(f) <= hold) next.set(f)
              }
            }
          active = ArraySeq.unsafeWrapArray(next.stream().toArray)
          done = active.isEmpty
        }
      }

      result(rounds, converged = done)
    } finally graph.destroy()
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
