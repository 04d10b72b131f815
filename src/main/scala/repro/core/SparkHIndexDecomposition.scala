package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.graph.HopNeighborhoods

/** Distributed H-index decomposition engine: Algorithms 2–3 expressed as
  * iterative DataFrame (Catalyst) dataflow.
  *
  * Static per (G, h): the h-hop pair table (distributed BFS), the
  * common-h-neighbor table ``(eid, u, v, w)``, and the oriented adjacency —
  * all persisted. Each round then:
  *
  *  1. joins per-edge keys onto the adjacency and runs ``h`` hop-bounded
  *     maximin DP steps (join + max-aggregate) to get the reachable-path
  *     keys ``P(a, b)`` of Definition 6;
  *  2. joins ``P`` onto the common-neighbor table from both endpoints and
  *     aggregates ``min(P(u,w), P(v,w))`` per edge with a native H-index
  *     expression (no UDF);
  *  3. merges the new values, counts changes, and ``localCheckpoint``s the
  *     key table to keep lineage flat across rounds.
  *
  * Modes (the paper's variants that exist in a BSP engine; Asyn's
  * shared-memory asynchrony does not, so Fig. 6 is reproduced by the local
  * engine):
  *  - [[SparkHIndexDecomposition.Sync]] — Paral: every edge recomputed from
  *    the previous round's keys.
  *  - [[SparkHIndexDecomposition.Pruned]] — Paral+: Sync plus Lemma-4
  *    active-set pruning via joins against the (h-1)-hop pair table (a
  *    changed edge activates edges with an endpoint within h-1 hops of its
  *    endpoints, only when its drop crosses their current value).
  */
object SparkHIndexDecomposition {

  /** Update-schedule variants. */
  sealed trait Mode
  /** Paral: synchronous Jacobi rounds. */
  case object Sync extends Mode
  /** Paral+: [[Sync]] rounds recomputing only the Lemma-4 active set. */
  case object Pruned extends Mode

  /** Decomposition output: ``trussness`` with schema
    * ``(eid BIGINT, src INT, dst INT, trussness INT)`` and the number of
    * rounds to convergence.
    */
  final case class Result(trussness: DataFrame, rounds: Int)

  /** H-index of an ``array<int>`` column: on the descending array,
    * H = |{i : x_i >= i + 1}|.
    */
  private def hIndexOf(values: Column): Column =
    size(filter(sort_array(values, asc = false), (x, i) => x > i))

  /** Run the decomposition over a canonical edge DataFrame
    * (``src, dst, eid`` — see [[repro.graph.EdgeList]]).
    */
  def decompose(edges: DataFrame, h: Int, mode: Mode = Sync, maxRounds: Int = 10000,
                deadlineNanos: Long = Long.MaxValue): Result = {
    require(h >= 1, s"need h >= 1, got $h")

    // Static tables are eagerly localCheckpoint-ed (not just persisted): a
    // checkpoint truncates the logical plan to a flat RDD scan, so the many
    // per-round jobs that reference these tables serialize small task
    // binaries instead of the whole construction lineage.
    val e0 = edges.select("src", "dst", "eid").localCheckpoint().toDF("src", "dst", "eid")
    val adj = repro.graph.EdgeList.oriented(e0).localCheckpoint().toDF("a", "b", "eid")
    val pairs = HopNeighborhoods.hopDistances(e0, h).localCheckpoint().toDF("a", "b", "dist")
    val common = HopNeighborhoods.commonNeighbors(e0, pairs)
      .localCheckpoint().toDF("eid", "u", "v", "w")
    // (h-1)-hop pairs for Lemma-4 activation; at h = 1 only distance 0
    // (the identity, handled separately) qualifies.
    val pairsHm1 = pairs.where(col("dist") <= h - 1).select("a", "b")
      .localCheckpoint().toDF("a", "b")

    // Current per-edge keys H^(n): (eid, src, dst, hval).
    var hdf = e0.join(HSupport.distributed(e0, h, Some(pairs)), "eid")
      .select(col("eid"), col("src"), col("dst"), col("sup") as "hval")
      .localCheckpoint()
      .toDF("eid", "src", "dst", "hval")

    // Edges to recompute this round; null means "all edges".
    var active: DataFrame = null
    var rounds = 0
    var done   = false
    while (!done && rounds < maxRounds) {
      Budget.check(deadlineNanos)
      rounds += 1
      val p = pathKeys(hdf, adj, h)
      val target = if (active == null) common else common.join(active, Seq("eid"), "left_semi")
      val recomputed = target.alias("c")
        .join(p.alias("pu"), col("c.u") === col("pu.a") && col("c.w") === col("pu.b"))
        .join(p.alias("pv"), col("c.v") === col("pv.a") && col("c.w") === col("pv.b"))
        .groupBy(col("c.eid") as "eid")
        .agg(hIndexOf(collect_list(least(col("pu.p"), col("pv.p")))) as "hnew")
      // Edges with no recomputed value keep theirs: they are either inactive
      // or have no common h-neighbor, hence support 0 (``least`` skips nulls).
      // One eager checkpoint materializes the whole round pipeline once.
      val next = hdf.join(recomputed, Seq("eid"), "left")
        .select(col("eid"), col("src"), col("dst"), col("hval"),
                least(col("hval"), col("hnew")) as "hnext")
        .localCheckpoint()
        .toDF("eid", "src", "dst", "hval", "hnext")
      val changed = next.where(col("hnext") < col("hval"))
        .select(col("eid"), col("src"), col("dst"), col("hval") as "hold", col("hnext") as "hnew")
      hdf  = next.select(col("eid"), col("src"), col("dst"), col("hnext") as "hval")
      done = changed.count() == 0
      if (mode == Pruned && !done) {
        active = activate(changed, pairsHm1, adj, hdf).localCheckpoint().toDF("eid")
        done = active.count() == 0
      }
    }

    val result = hdf.select(col("eid"), col("src"), col("dst"), (col("hval") + 2) as "trussness")
    Result(result, rounds)
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

  /** Lemma-4 activation: edges with an endpoint within h-1 hops of a changed
    * edge's endpoint, whose current value lies in the crossed interval
    * ``(hnew, hold]``.
    */
  private[core] def activate(changedLog: DataFrame, pairsHm1: DataFrame,
                             adj: DataFrame, hdf: DataFrame): DataFrame = {
    val changedV = changedLog
      .select(explode(array(col("src"), col("dst"))) as "cv", col("hold"), col("hnew"))
    // Vertices within h-1 hops of a changed endpoint, plus the endpoint itself.
    val reached = changedV
      .join(pairsHm1, col("cv") === col("a"))
      .select(col("b") as "av", col("hold"), col("hnew"))
      .unionAll(changedV.select(col("cv") as "av", col("hold"), col("hnew")))
    reached.alias("r")
      .join(adj.alias("j"), col("r.av") === col("j.a"))
      .select(col("j.eid") as "eid", col("r.hold") as "hold", col("r.hnew") as "hnew")
      .join(hdf.select(col("eid"), col("hval")), Seq("eid"))
      .where(col("hnew") < col("hval") && col("hval") <= col("hold"))
      .select("eid")
      .distinct()
  }
}
