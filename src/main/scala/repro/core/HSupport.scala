package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{HopNeighborhoods, LocalGraph}

/** h-support computation: ``sup_G(e, h) = |Δ_G(e, h)|``, the number of
  * common h-neighbors of the edge's endpoints (Definition 3), by DataFrame
  * joins over the h-hop pair table and as the local engine's order-0 step.
  */
object HSupport {

  /** Distributed h-support: ``(eid BIGINT, sup INT)`` for every edge, zero
    * included. ``pairsH`` is the output of
    * [[repro.graph.HopNeighborhoods.hopDistances]] for the same graph and h
    * (pass ``None`` to compute it here).
    */
  def distributed(edges: DataFrame, h: Int, pairsH: Option[DataFrame] = None): DataFrame = {
    val pairs  = pairsH.getOrElse(HopNeighborhoods.hopDistances(edges, h))
    val common = HopNeighborhoods.commonNeighbors(edges, pairs)
    val counts = common.groupBy("eid").agg(count(lit(1)).cast("int") as "sup")
    edges.select(col("eid"))
      .join(counts, Seq("eid"), "left")
      .select(col("eid"), coalesce(col("sup"), lit(0)) as "sup")
  }

  /** Local h-support for all edges, aligned with the CSR edge indices: the
    * local engine's order-0 step, [[LocalHIndexDecomposition.decompose]] at
    * ``maxRounds = 0`` on one thread, minus 2. It requires ``h >= 1``.
    * ``deadlineNanos``: cooperative budget, see [[Budget]].
    */
  def local(g: LocalGraph, h: Int, deadlineNanos: Long = Long.MaxValue): Array[Int] =
    LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(maxRounds = 0, deadlineNanos = deadlineNanos))
      .trussness.map(_ - 2)
}
