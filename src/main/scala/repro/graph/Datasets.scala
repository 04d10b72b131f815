package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic analogues of the paper's six KONECT datasets (Table 1).
  *
  * The image has no network egress, so each public graph is substituted by a
  * deterministic synthetic graph whose ``|V|``/``|E|`` match the paper
  * (scaled down for GA/AM/AN so the sequential baseline terminates within
  * this container's time budget — the paper itself marks Base as INF past 4
  * days on large inputs). Degree-skew/clustering shape is chosen per domain:
  * protein-interaction and city networks are sparse power-law; Gnutella is a
  * low-clustering p2p overlay; the Amazon graphs are hubby (TWEB) and
  * high-clustering (MDS). See DESIGN.md §4 for the substitution rationale.
  */
final case class DatasetSpec(
    code: String,
    name: String,
    paperV: Int,
    paperE: Int,
    scale: Double,
    gen: Long => Seq[(Int, Int)],
) {
  /** Deterministic edge list for this dataset (fixed seed per dataset). */
  def edges: Seq[(Int, Int)] = gen(code.hashCode.toLong)

  /** Local CSR form. */
  def localGraph: LocalGraph = LocalGraph.fromEdges(edges)

  /** Canonical distributed form. */
  def edgesDf(spark: SparkSession): DataFrame = EdgeList.fromPairs(spark, edges)
}

object Datasets {

  val YT: DatasetSpec = DatasetSpec("YT", "Yeast", 1870, 2227, 1.0,
    seed => GraphGen.sparseConnected(1870, 2227, 2.5, seed))

  val VL: DatasetSpec = DatasetSpec("VL", "Human proteins Vidal", 3133, 6726, 1.0,
    seed => GraphGen.sparseConnected(3133, 6726, 2.3, seed))

  val SC: DatasetSpec = DatasetSpec("SC", "Sister cities", 14274, 20573, 1.0,
    seed => GraphGen.sparseConnected(14274, 20573, 2.6, seed))

  val GA: DatasetSpec = DatasetSpec("GA", "Gnutella 30", 9171, 22082, 0.25,
    seed => GraphGen.chungLu(9171, 22082, 3.5, seed))

  val AM: DatasetSpec = DatasetSpec("AM", "Amazon TWEB 0302", 5242, 24698, 0.02,
    seed => GraphGen.chungLu(5242, 24698, 2.2, seed))

  val AN: DatasetSpec = DatasetSpec("AN", "Amazon MDS", 6697, 18517, 0.02,
    seed => {
      val sw    = GraphGen.smallWorld(6697, 4, 0.10, seed)
      val extra = GraphGen.erdosRenyi(6697, 18517, seed + 1)
      (sw ++ extra).distinct.take(18517)
    })

  /** All six datasets in the paper's Table 1 order. */
  val all: Seq[DatasetSpec] = Seq(YT, VL, SC, GA, AM, AN)
}
