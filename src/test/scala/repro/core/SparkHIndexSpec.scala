package repro.core

import repro.{NaiveReference, SparkSpec, TestGraphs}
import repro.TestGraphs.GraphOps
import repro.graph.{EdgeList, GraphGen, LocalGraph}
import repro.core.{SparkHIndexDecomposition => S}

/** The distributed engine against the local engines, across both update
  * schedules (Sync / Pruned).
  */
class SparkHIndexSpec extends SparkSpec {

  private def expected(edges: Seq[(Int, Int)], h: Int): Map[Long, Int] = {
    val g = LocalGraph.fromEdges(edges)
    val t = BaselinePeeling.trussness(g, h)
    (0 until g.m).map(e => g.eids(e) -> t(e)).toMap
  }

  /** Trussness by eid, rounds and the convergence flag. */
  private def run(edges: Seq[(Int, Int)], h: Int, mode: S.Mode,
                  maxRounds: Int = 10000): (Map[Long, Int], Int, Boolean) = {
    val df = EdgeList.fromPairs(spark, edges)
    val r  = S.decompose(df, h, mode, maxRounds)
    (r.trussness.collect().map(row => row.getLong(0) -> row.getInt(3)).toMap, r.rounds, r.converged)
  }

  test("triangle at h=1 (all modes)") {
    val exp = expected(TestGraphs.triangle, 1)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.triangle, 1, mode)._1 == exp, mode.toString)
  }

  test("two cliques with bridge at h=1 (all modes)") {
    val exp = expected(TestGraphs.twoCliquesBridge, 1)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.twoCliquesBridge, 1, mode)._1 == exp, mode.toString)
  }

  test("bowtie and C6 at h=2 (all modes)") {
    for (edges <- Seq(TestGraphs.bowtie, TestGraphs.c6)) {
      val exp = expected(edges, 2)
      for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
        assert(run(edges, 2, mode)._1 == exp, s"$edges $mode")
    }
  }

  test("fig1-like graph at h=2 across modes") {
    val exp = expected(TestGraphs.fig1Like, 2)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(TestGraphs.fig1Like, 2, mode)._1 == exp, mode.toString)
  }

  test("random graphs at h=1..3, sync mode") {
    for ((edges, i) <- TestGraphs.randomPool(3, 14, 510).zipWithIndex; h <- 1 to 3)
      assert(run(edges, h, S.Sync)._1 == expected(edges, h), s"rand$i h=$h")
  }

  test("random graphs at h=2, pruned mode") {
    for ((edges, i) <- TestGraphs.randomPool(3, 14, 530).zipWithIndex)
      assert(run(edges, 2, S.Pruned)._1 == expected(edges, 2), s"rand$i pruned")
  }

  test("sync round count matches the local synchronous engine") {
    for (edges <- Seq(TestGraphs.fig1Like, GraphGen.smallWorld(30, 4, 0.2, 9))) {
      val g = LocalGraph.fromEdges(edges)
      val localRounds = LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig()).rounds
      val syncRounds  = run(edges, 2, S.Sync)._2
      assert(syncRounds == localRounds)
      assert(run(edges, 2, S.Pruned)._2 <= syncRounds)
    }
  }

  test("result carries src/dst columns consistent with eid") {
    val df = EdgeList.fromPairs(spark, TestGraphs.k4)
    val r = S.decompose(df, 1, S.Sync)
    r.trussness.collect().foreach { row =>
      assert(EdgeList.eid(row.getInt(1), row.getInt(2)) == row.getLong(0))
    }
  }

  test("medium graph at h=2 equals local engine end-to-end") {
    val edges = GraphGen.chungLu(60, 140, 2.3, 57)
    val exp = expected(edges, 2)
    assert(run(edges, 2, S.Pruned)._1 == exp)
  }

  test("rounds cut at maxRounds 1..3 equal the local synchronous engine's (both modes)") {
    for (edges <- Seq(TestGraphs.randomPool(2, 16, 550)(1), GraphGen.smallWorld(20, 4, 0.2, 10));
         h <- 1 to 3; maxRounds <- Seq(1, 2, 3, 10000)) {
      val g = LocalGraph.fromEdges(edges)
      def local(pruning: Boolean) = {
        val r = LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(pruning = pruning, maxRounds = maxRounds))
        ((0 until g.m).map(e => g.eids(e) -> r.trussness(e)).toMap, r.rounds, r.converged)
      }
      val sync   = local(pruning = false)
      val pruned = run(edges, h, S.Pruned, maxRounds)
      assert(run(edges, h, S.Sync, maxRounds) == sync, s"h=$h maxRounds=$maxRounds")
      assert(pruned == local(pruning = true), s"pruned h=$h maxRounds=$maxRounds")
      // Lemma 4 skips only edges a Jacobi round would not change.
      assert(pruned._1 == sync._1, s"pruned h=$h maxRounds=$maxRounds")
    }
  }

  test("empty graph converges immediately") {
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned)) {
      val r = S.decompose(EdgeList.fromPairs(spark, Seq.empty), 2, mode)
      assert(r.rounds == 0 && r.converged && r.trussness.count() == 0, mode.toString)
    }
  }

  test("a run cut at maxRounds before the fixpoint reports that it did not converge") {
    val df = EdgeList.fromPairs(spark, TestGraphs.fig1Like)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned)) {
      val full = S.decompose(df, 2, mode)
      assert(full.converged && full.rounds > 1, mode.toString)
      val cut = S.decompose(df, 2, mode, maxRounds = 1)
      assert(!cut.converged && cut.rounds == 1, mode.toString)
    }
  }

  test("a deadline that has passed raises Budget.Exceeded in both modes") {
    val df = EdgeList.fromPairs(spark, TestGraphs.fig1Like)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      intercept[Budget.Exceeded](S.decompose(df, 2, mode, deadlineNanos = System.nanoTime() - 1))
  }

  test("h < 1 and a negative maxRounds are rejected before any job runs") {
    val sc = spark.sparkContext
    val df = EdgeList.fromPairs(spark, TestGraphs.fig1Like)
    // Job ids are handed out in submission order: a marker job right after
    // the rejection has the id after the previous marker's only if no job
    // ran between them.
    def markerJob(): Int = {
      val group = s"marker-${System.nanoTime()}"
      sc.setJobGroup(group, "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      // The status tracker learns of a job through the listener bus.
      var ids = sc.statusTracker.getJobIdsForGroup(group)
      while (ids.isEmpty && System.nanoTime() < deadline) {
        Thread.sleep(10)
        ids = sc.statusTracker.getJobIdsForGroup(group)
      }
      assert(ids.length == 1, group)
      ids.head
    }
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned); (h, maxRounds) <- Seq((0, 10), (2, -1))) {
      val before = markerJob()
      intercept[IllegalArgumentException](S.decompose(df, h, mode, maxRounds))
      assert(markerJob() == before + 1, s"$mode h=$h maxRounds=$maxRounds")
    }
  }

  test("h = Int.MaxValue gives the baseline's trussness") {
    val edges = GraphGen.smallWorld(40, 4, 0.1, 5)
    val exp   = expected(edges, Int.MaxValue)
    for (mode <- Seq[S.Mode](S.Sync, S.Pruned))
      assert(run(edges, Int.MaxValue, mode)._1 == exp, mode.toString)
  }

  test("pathKeys equals the exhaustive maximin key for h = 1..3") {
    val edges = GraphGen.chungLu(14, 26, 2.3, 61)
    val g     = LocalGraph.fromEdges(edges)
    val pairs = g.edgePairs
    val key   = pairs.zipWithIndex.map { case (pair, e) => pair -> e * 7 % 5 }.toMap
    val e0    = EdgeList.fromPairs(spark, edges)
    val hdf   = spark.createDataFrame(key.toSeq.map { case ((u, v), k) => (EdgeList.eid(u, v), k) })
      .toDF("eid", "hval")
    val adj   = EdgeList.oriented(e0)
    for (h <- 1 to 3) {
      val got = S.pathKeys(hdf, adj, h).collect()
        .map(r => (r.getInt(0), r.getInt(1)) -> r.getInt(2)).toMap
      val exp = (for (u <- g.label; w <- g.label if u != w;
                      k <- NaiveReference.maximinKey(pairs, key, u, w, h)) yield (u, w) -> k).toMap
      assert(got == exp, s"h=$h")
    }
  }
}
