package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed h-hop neighborhood computation over a canonical edge
  * DataFrame, via iterative joins (level-synchronous distributed BFS).
  *
  * ``hopDistances`` materializes the table of vertex pairs within distance
  * ``h`` together with their exact (minimal) distance — the substrate of
  * the common-h-neighbor table and of [[repro.core.HSupport.distributed]].
  * These joins are the SQL-checkable formulation of h-hops; the Spark
  * engine does not use them (it runs the local kernel in its tasks).
  */
object HopNeighborhoods {

  /** All ordered pairs ``(a, b)`` with ``1 <= dist(a,b) <= h`` and their
    * minimal distance: schema ``(a INT, b INT, dist INT)``. Symmetric (both
    * orientations present). Uses localCheckpoint per level to keep lineage
    * flat across the h join rounds.
    */
  def hopDistances(edges: DataFrame, h: Int): DataFrame = {
    require(h >= 1, s"need h >= 1, got $h")
    // ``toDF`` after every checkpoint re-aliases with fresh expression ids;
    // without it, union branches share attribute ids across iterations and
    // trip Catalyst's union constraint rewriting.
    val adj = EdgeList.oriented(edges).select(col("a"), col("b")).localCheckpoint().toDF("a", "b")
    var known    = adj.withColumn("dist", lit(1))
    var frontier = known
    var d = 2
    while (d <= h) {
      val expanded = frontier.alias("f")
        .join(adj.alias("e"), col("f.b") === col("e.a"))
        .select(col("f.a") as "a", col("e.b") as "b")
        .where(col("a") =!= col("b"))
        .distinct()
      val next = expanded
        .join(known.select(col("a") as "ka", col("b") as "kb"),
              col("a") === col("ka") && col("b") === col("kb"), "left_anti")
        .withColumn("dist", lit(d))
        .localCheckpoint()
        .toDF("a", "b", "dist")
      known = known.unionAll(next).localCheckpoint().toDF("a", "b", "dist")
      frontier = next
      d += 1
    }
    known
  }

  /** Common h-neighbor table: one row per ``(eid, u, v, w)`` where ``w`` is
    * a common h-neighbor of edge ``eid = (u, v)`` (``w`` within distance h
    * of both endpoints, ``w ∉ {u, v}``).
    */
  def commonNeighbors(edges: DataFrame, pairsH: DataFrame): DataFrame = {
    val p = pairsH.select(col("a"), col("b"))
    edges.alias("e")
      .join(p.alias("pu"), col("e.src") === col("pu.a"))
      .join(p.alias("pv"), col("e.dst") === col("pv.a") && col("pu.b") === col("pv.b"))
      .select(col("e.eid") as "eid", col("e.src") as "u", col("e.dst") as "v",
              col("pu.b") as "w")
      .where(col("w") =!= col("u") && col("w") =!= col("v"))
  }
}
