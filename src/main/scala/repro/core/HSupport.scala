package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{HopNeighborhoods, LocalGraph}

/** h-support computation: ``sup_G(e, h) = |Δ_G(e, h)|``, the number of
  * common h-neighbors of the edge's endpoints (Definition 3). Provided in
  * both distributed (DataFrame joins over the h-hop pair table) and local
  * (CSR + BFS) forms; tests cross-check the two and, for h <= 2, a DuckDB
  * SQL formulation via the test oracle ``repro.Oracle``.
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

  /** Local h-support for all edges, aligned with the CSR edge indices.
    * ``deadlineNanos``: cooperative budget, see [[Budget]].
    */
  def local(g: LocalGraph, h: Int, deadlineNanos: Long = Long.MaxValue): Array[Int] = {
    val scratch = new HopScratch(g)
    val out = new Array[Int](g.m)
    var e = 0
    while (e < g.m) {
      if ((e & 63) == 0) Budget.check(deadlineNanos)
      out(e) = scratch.support(g.edgeSrc(e), g.edgeDst(e), h, null)
      e += 1
    }
    out
  }
}
