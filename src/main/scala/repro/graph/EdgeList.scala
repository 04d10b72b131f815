package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Canonical undirected edge-list representation.
  *
  * Every distributed algorithm in this repo works over a canonical edge
  * DataFrame with schema ``(src INT, dst INT, eid BIGINT)`` where
  * ``src < dst`` (undirected, no self-loops, no duplicates) and
  * ``eid = (src << 32) | dst`` — a deterministic, collision-free id that is
  * stable across runs and engines, so local and Spark results can be joined.
  */
object EdgeList {

  /** Deterministic edge id for a canonical pair ``u < v``. */
  def eid(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)

  /** Canonicalize an arbitrary ``(src, dst)`` DataFrame: orient edges as
    * ``src < dst``, drop self-loops and duplicates, and attach ``eid``.
    */
  def canonicalize(raw: DataFrame): DataFrame = {
    val s = col("src").cast("int")
    val d = col("dst").cast("int")
    raw
      .select(least(s, d) as "src", greatest(s, d) as "dst")
      .where(col("src") =!= col("dst"))
      .distinct()
      .withColumn("eid", shiftleft(col("src").cast("long"), 32).bitwiseOR(col("dst").cast("long")))
  }

  /** Build a canonical edge DataFrame from in-memory pairs (test helper). */
  def fromPairs(spark: SparkSession, pairs: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    canonicalize(pairs.toDF("src", "dst"))
  }

  /** Both orientations of each canonical edge: ``(a, b, eid)`` with one row
    * per direction. The building block for adjacency joins.
    */
  def oriented(edges: DataFrame): DataFrame = {
    val fwd = edges.select(col("src") as "a", col("dst") as "b", col("eid"))
    val bwd = edges.select(col("dst") as "a", col("src") as "b", col("eid"))
    fwd.unionAll(bwd)
  }
}
