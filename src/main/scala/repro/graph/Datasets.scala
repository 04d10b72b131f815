package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic analogues of the paper's six KONECT datasets (Table 1).
  *
  * The KONECT graphs are not bundled, so each is substituted by a
  * deterministic synthetic graph. ``paperV``/``paperE`` are the KONECT
  * sizes the paper lists; the generator is asked for ``targetV``/``targetE``,
  * those sizes times ``scale``, rounded. GA, AM and AN are scaled down so
  * the sequential baseline terminates within the evaluation's time budget
  * (the paper itself marks Base as INF past 4 days on large inputs).
  * Degree-skew/clustering shape is chosen per domain: protein-interaction
  * and city networks are sparse power-law; Gnutella is a low-clustering p2p
  * overlay; the Amazon graphs are hubby (TWEB) and high-clustering (MDS).
  * See DESIGN.md §4 for the substitution rationale.
  */
final case class DatasetSpec(
    code: String,
    name: String,
    paperV: Int,
    paperE: Int,
    scale: Double,
    build: (Int, Int, Long) => Seq[(Int, Int)],
) {
  /** Generator target |V|: ``paperV`` times ``scale``, rounded. */
  val targetV: Int = math.round(paperV * scale).toInt

  /** Generator target |E|: ``paperE`` times ``scale``, rounded. */
  val targetE: Int = math.round(paperE * scale).toInt

  /** Edge list for a seed: ``build(targetV, targetE, seed)``. */
  val gen: Long => Seq[(Int, Int)] = seed => build(targetV, targetE, seed)

  /** Deterministic edge list for this dataset (fixed seed per dataset). */
  def edges: Seq[(Int, Int)] = gen(code.hashCode.toLong)

  /** Local CSR form. */
  def localGraph: LocalGraph = LocalGraph.fromEdges(edges)

  /** Canonical distributed form. */
  def edgesDf(spark: SparkSession): DataFrame = EdgeList.fromPairs(spark, edges)
}

object Datasets {

  val YT: DatasetSpec = DatasetSpec("YT", "Yeast", 1870, 2227, 1.0,
    (n, m, seed) => GraphGen.sparseConnected(n, m, 2.5, seed))

  val VL: DatasetSpec = DatasetSpec("VL", "Human proteins Vidal", 3133, 6726, 1.0,
    (n, m, seed) => GraphGen.sparseConnected(n, m, 2.3, seed))

  val SC: DatasetSpec = DatasetSpec("SC", "Sister cities", 14274, 20573, 1.0,
    (n, m, seed) => GraphGen.sparseConnected(n, m, 2.6, seed))

  val GA: DatasetSpec = DatasetSpec("GA", "Gnutella 30", 36682, 88328, 0.25,
    (n, m, seed) => GraphGen.chungLu(n, m, 3.5, seed))

  val AM: DatasetSpec = DatasetSpec("AM", "Amazon TWEB 0302", 262111, 1234877, 0.02,
    (n, m, seed) => GraphGen.chungLu(n, m, 2.2, seed))

  val AN: DatasetSpec = DatasetSpec("AN", "Amazon MDS", 334863, 925872, 0.02,
    (n, m, seed) => {
      val sw    = GraphGen.smallWorld(n, 4, 0.10, seed)
      val extra = GraphGen.erdosRenyi(n, m, seed + 1)
      (sw ++ extra).distinct.take(m)
    })

  /** All six datasets in the paper's Table 1 order. */
  val all: Seq[DatasetSpec] = Seq(YT, VL, SC, GA, AM, AN)
}
