package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** Reproduces the paper's evaluation: Table 1 and Figures 4–6 as tables 1–4
  * (see EXPERIMENTS.md). Prints each table and then the ways it breaks the
  * paper's shape; exits 1 if any table broke it and 2 on a bad command line
  * or ``REPRO_BUDGET_MS``.
  *
  * Usage: ``spark-submit --class repro.jobs.Reproduce <jar> <1|2|3|4|all>
  * [h...]`` (default h = 2 3), or ``sbt "runMain repro.jobs.Reproduce all"``.
  * Each variant gets ``REPRO_BUDGET_MS`` ms (default 90000; Spark cells
  * ``Harness.SparkBudgetFactor`` times that) before its cell reads INF, and
  * uses every available processor. The Spark master is spark-submit's
  * ``--master``, else ``local[*]``.
  */
object Reproduce {
  private val Usage = "usage: Reproduce <1|2|3|4|all> [h...]"

  /** The tables and hop thresholds a command line asks for, or why it is
    * rejected.
    */
  def parse(args: Seq[String]): Either[String, (Seq[Int], Seq[Int])] = args match {
    case Seq() => Left(Usage)
    case table +: hArgs =>
      val tables =
        if (table == "all") Some(1 to 4) else table.toIntOption.filter(1 to 4 contains _).map(Seq(_))
      val hs     = hArgs.map(_.toIntOption.filter(_ >= 1))
      if (tables.isEmpty) Left(s"unknown table '$table'; $Usage")
      else if (hs.contains(None)) Left(s"each h must be an integer >= 1, got '${hArgs.mkString(" ")}'")
      else Right((tables.get, if (hs.isEmpty) Seq(2, 3) else hs.flatten))
  }

  /** The per-variant budget in ms that ``REPRO_BUDGET_MS`` (``None`` when
    * unset) asks for, or why it is rejected.
    */
  def parseBudget(env: Option[String]): Either[String, Long] = env match {
    case None    => Right(90000L)
    case Some(s) => s.toLongOption.filter(_ >= 1).toRight(s"REPRO_BUDGET_MS must be an integer >= 1, got '$s'")
  }

  def main(args: Array[String]): Unit = {
    val request = for {
      tablesAndHs <- parse(args.toSeq)
      budgetMs    <- parseBudget(sys.env.get("REPRO_BUDGET_MS"))
    } yield (tablesAndHs, budgetMs)
    val ((tables, hs), budgetMs) = request match {
      case Right(parsed) => parsed
      case Left(msg)     => System.err.println(msg); sys.exit(2)
    }
    val threads  = Runtime.getRuntime.availableProcessors()
    lazy val spark = SparkSession.builder
      .master(sys.props.getOrElse("spark.master", "local[*]"))
      .appName("repro")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    Harness.warmup()
    val violations = tables.flatMap { n =>
      val (rendered, broken) = Harness.table(n, hs, threads, budgetMs, spark)
      println(rendered)
      broken.foreach(v => System.err.println(s"table $n shape violated: $v"))
      broken
    }
    sys.exit(if (violations.isEmpty) 0 else 1)
  }
}
