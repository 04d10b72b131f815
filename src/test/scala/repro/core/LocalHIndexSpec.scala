package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{NaiveReference, TestGraphs}
import repro.TestGraphs.GraphOps
import repro.graph.{GraphGen, LocalGraph}

/** The shared-memory H-index engine (Paral/Single/Asyn/Paral+) against the
  * peeling baseline, the definition oracle, and the naive step reference.
  */
class LocalHIndexSpec extends AnyFunSuite {

  private val variants: Seq[(String, LocalHIndexConfig)] = Seq(
    "Single"        -> LocalHIndexConfig(threads = 1),
    "Paral(4)"      -> LocalHIndexConfig(threads = 4),
    "Asyn(1)"       -> LocalHIndexConfig(threads = 1, async = true),
    "Asyn(4)"       -> LocalHIndexConfig(threads = 4, async = true),
    "Pruned(1)"     -> LocalHIndexConfig(threads = 1, pruning = true),
    "Paral+(4)"     -> LocalHIndexConfig(threads = 4, async = true, pruning = true),
    // More threads than cores, so that workers rewrite shared keys at once.
    "Asyn(8)"       -> LocalHIndexConfig(threads = 8, async = true),
    "Paral+(8)"     -> LocalHIndexConfig(threads = 8, async = true, pruning = true),
  )

  /** The engine's ball index of ``g``, built on one thread. */
  private def ballIndex(g: LocalGraph, h: Int): BallIndex = {
    val scratch = new HopScratch(g)
    val index   = new BallIndex(h, Array.tabulate(g.n)(scratch.ballSize(_, h)), keyed = true)
    for (v <- 0 until g.n) scratch.fillBall(v, index)
    index
  }

  /** Synchronous (Jacobi) rounds of the per-edge reference kernel: each
    * round computes every edge's value from a snapshot of the last round's,
    * until a round changes nothing or ``maxRounds`` rounds have run.
    * Returns the trussness and the rounds run, as the engine counts them.
    */
  private def jacobi(g: LocalGraph, h: Int, maxRounds: Int): (Seq[Int], Int) = {
    val scratch = new HopScratch(g)
    var cur     = HSupport.local(g, h)
    var rounds  = 0
    var changed = true
    while (changed && rounds < maxRounds) {
      rounds += 1
      val snapshot = cur
      cur = Array.tabulate(g.m)(e => scratch.computeHIndex(e, h, snapshot, snapshot(e)))
      changed = !java.util.Arrays.equals(cur, snapshot)
    }
    (cur.toSeq.map(_ + 2), rounds)
  }

  private def checkAll(edges: Seq[(Int, Int)], h: Int, label: String): Unit = {
    val g = LocalGraph.fromEdges(edges)
    val expect = BruteForce.trussness(g, h).toSeq
    for ((name, cfg) <- variants) {
      val got = LocalHIndexDecomposition.decompose(g, h, cfg)
      assert(got.trussness.toSeq == expect, s"$label h=$h variant=$name")
    }
  }

  test("hand graphs at h=1 (all variants)") {
    for ((e, i) <- Seq(TestGraphs.triangle, TestGraphs.k5, TestGraphs.bowtie,
                       TestGraphs.twoCliquesBridge, TestGraphs.path5).zipWithIndex)
      checkAll(e, 1, s"hand$i")
  }

  test("hand graphs at h=2 (all variants)") {
    for ((e, i) <- Seq(TestGraphs.k4, TestGraphs.bowtie, TestGraphs.star5,
                       TestGraphs.c6, TestGraphs.twoCliquesBridge,
                       TestGraphs.fig1Like).zipWithIndex)
      checkAll(e, 2, s"hand$i")
  }

  test("hand graphs at h=3 (all variants)") {
    for ((e, i) <- Seq(TestGraphs.bowtie, TestGraphs.c6,
                       TestGraphs.twoCliquesBridge, TestGraphs.fig1Like).zipWithIndex)
      checkAll(e, 3, s"hand$i")
  }

  test("random pool at h=1") {
    for ((e, i) <- TestGraphs.randomPool(12, 22, 110).zipWithIndex) checkAll(e, 1, s"rand$i")
  }

  test("random pool at h=2") {
    for ((e, i) <- TestGraphs.randomPool(12, 18, 210).zipWithIndex) checkAll(e, 2, s"rand$i")
  }

  test("random pool at h=3") {
    for ((e, i) <- TestGraphs.randomPool(6, 14, 310).zipWithIndex) checkAll(e, 3, s"rand$i")
  }

  test("larger graphs agree with the peeling baseline") {
    for ((edges, h) <- Seq(
        (GraphGen.chungLu(300, 700, 2.3, 41), 2),
        (GraphGen.smallWorld(250, 6, 0.1, 42), 2),
        (TestGraphs.plantedCommunities(4, 12, 0.6, 10, 43), 2),
        (GraphGen.erdosRenyi(200, 400, 44), 3))) {
      val g = LocalGraph.fromEdges(edges)
      val expect = BaselinePeeling.trussness(g, h).toSeq
      val sync   = LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(threads = 8))
      val asyncP = LocalHIndexDecomposition.decompose(
        g, h, LocalHIndexConfig(threads = 8, async = true, pruning = true))
      val syncP  = LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(threads = 8, pruning = true))
      assert(sync.trussness.toSeq == expect)
      assert(asyncP.trussness.toSeq == expect)
      assert(syncP.trussness.toSeq == expect)
    }
  }

  test("order-0 values are the h-supports") {
    val g = LocalGraph.fromEdges(TestGraphs.fig1Like)
    for (h <- 1 to 3) {
      val r      = LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(threads = 2, maxRounds = 0))
      val expect = NaiveReference.hSupport(TestGraphs.fig1Like, h)
      assert(r.trussness.map(_ - 2).toSeq == g.edgePairs.map(expect), s"h=$h")
    }
  }

  test("first synchronous round matches the naive Algorithm-3 step") {
    for (seed <- 0 until 5; h <- 1 to 3) {
      val edges = TestGraphs.randomPool(1, 14, 800 + seed).head
      val g = LocalGraph.fromEdges(edges)
      val sup = HSupport.local(g, h)
      val key = (0 until g.m)
        .map(e => (g.label(g.edgeSrc(e)), g.label(g.edgeDst(e))) -> sup(e)).toMap
      val expect = NaiveReference.hStep(edges, key, h)
      val scratch = new HopScratch(g)
      for (e <- 0 until g.m) {
        val got = scratch.computeHIndex(e, h, sup, sup(e))
        val pair = (g.label(g.edgeSrc(e)), g.label(g.edgeDst(e)))
        assert(math.min(got, sup(e)) == expect(pair), s"seed=$seed h=$h e=$pair")
      }
      // The engine's synchronous round: one edge phase over the round-start copy.
      for (t <- Seq(1, 4)) {
        val r = LocalHIndexDecomposition.decompose(g, h, LocalHIndexConfig(threads = t, maxRounds = 1))
        for (e <- 0 until g.m) {
          val pair = (g.label(g.edgeSrc(e)), g.label(g.edgeDst(e)))
          assert(r.trussness(e) - 2 == expect(pair), s"seed=$seed h=$h t=$t e=$pair")
        }
      }
    }
  }

  test("order-0 supports from the ball index match the per-edge supports") {
    for ((edges, i) <- TestGraphs.randomPool(8, 30, 420).zipWithIndex; h <- 1 to 3) {
      val g = LocalGraph.fromEdges(edges)
      val got = new Array[Int](g.m)
      new HopScratch(g).storeSupports(ballIndex(g, h), 0, g.m, got)
      val expect = (0 until g.m).map(e => g.commonHNeighbors(g.edgeSrc(e), g.edgeDst(e), h).size)
      assert(got.toSeq == expect, s"pool$i h=$h")
    }
  }

  test("asynchronous edge phase: stale stored keys only raise values, refreshed keys are exact") {
    val rng = new scala.util.Random(7)
    for ((edges, i) <- (TestGraphs.randomPool(6, 24, 510) :+ GraphGen.chungLu(150, 400, 2.3, 12)).zipWithIndex;
         h <- 1 to 3) {
      val g    = LocalGraph.fromEdges(edges)
      val tau  = BaselinePeeling.trussness(g, h)
      val sup  = HSupport.local(g, h)
      // Pointwise sup >= hvalOld >= hvalNew >= tau - 2.
      val hvalNew = Array.tabulate(g.m)(e => tau(e) - 2 + rng.nextInt(sup(e) - tau(e) + 3))
      val hvalOld = Array.tabulate(g.m)(e => hvalNew(e) + rng.nextInt(sup(e) - hvalNew(e) + 1))
      val scratch = new HopScratch(g)
      val fresh   = Array.tabulate(g.m)(e => scratch.computeHIndex(e, h, hvalNew, hvalNew(e)))
      for (e <- 0 until g.m) assert(fresh(e) >= tau(e) - 2, s"graph$i h=$h e=$e")
      val all = new java.util.BitSet(g.m); all.set(0, g.m)
      for (stale <- Seq(false, true); live <- Seq(false, true)) {
        // Keys stored from hvalOld; the next round reads hvalNew, live
        // (asynchronous) or as a synchronous round's copy. Marking every
        // vertex stale after the store makes every key stale.
        val index = ballIndex(g, h)
        for (v <- 0 until g.n) scratch.storeKeys(v, index, hvalOld)
        if (stale) for (v <- 0 until g.n) index.markStale(v)
        val got = hvalNew.clone()
        scratch.storeHIndices(index, 0, g.m, all, hvalNew, got, live)
        for (e <- 0 until g.m) {
          if (stale) assert(got(e) == fresh(e), s"graph$i h=$h live=$live e=$e (refreshed keys)")
          else assert(got(e) >= fresh(e), s"graph$i h=$h live=$live e=$e (stale keys)")
        }
      }
    }
  }

  test("stored keys are the exhaustive maximin keys, up to and beyond the diameter") {
    val rng = new scala.util.Random(15)
    // A hub with a few rim edges: every leaf is two hops from every other.
    val hub = TestGraphs.star5 ++ Seq((1, 2), (3, 4)) ++ (6 to 9).map(i => (0, i))
    val graphs = TestGraphs.randomPool(8, 16, 1510) ++
      Seq(GraphGen.chungLu(24, 48, 2.3, 1511), GraphGen.chungLu(30, 60, 2.1, 1512), TestGraphs.star5, hub)
    for ((edges, i) <- graphs.zipWithIndex; h <- 1 to 4) {
      val g       = LocalGraph.fromEdges(edges)
      val hval    = Array.fill(g.m)(rng.nextInt(7))
      val key     = g.edgePairs.zip(hval).toMap
      val index   = ballIndex(g, h)
      val scratch = new HopScratch(g)
      for (v <- 0 until g.n) scratch.storeKeys(v, index, hval)
      for (v <- 0 until g.n) {
        assert(index.keys(index.start(v)) == Int.MaxValue, s"graph$i h=$h v=$v (root)")
        for (j <- index.start(v) + 1 until index.end(v)) {
          val expect = NaiveReference.maximinKey(g.edgePairs, key, g.label(v), g.label(index.ballVert(j)), h)
          assert(expect.contains(index.keys(j)), s"graph$i h=$h v=$v w=${index.ballVert(j)}")
        }
      }
    }
  }

  test("capped counts agree with min(cap, H-index) at cap 0, caps past the ball, and early stops") {
    val rng = new scala.util.Random(16)
    var stops = 0
    for ((edges, i) <- (TestGraphs.randomPool(6, 13, 1610) :+ TestGraphs.fig1Like).zipWithIndex; h <- 1 to 3) {
      val g    = LocalGraph.fromEdges(edges)
      val hval = Array.fill(g.m)(rng.nextInt(3) match { case 0 => 0; case 1 => rng.nextInt(4); case _ => g.n + rng.nextInt(3) })
      val key  = g.edgePairs.zip(hval).toMap
      def maximin(a: Int, b: Int) = NaiveReference.maximinKey(g.edgePairs, key, g.label(a), g.label(b), h).get
      val uncapped = Array.tabulate(g.m) { e =>
        val (u, v) = (g.edgeSrc(e), g.edgeDst(e))
        NaiveReference.hIndex(g.commonHNeighbors(u, v, h).toSeq.map(w => math.min(maximin(u, w), maximin(v, w))))
      }
      val scratch = new HopScratch(g)
      // Caps in a shuffled order, so that each count follows one with another bound.
      val caps = rng.shuffle((0 to g.n + 1).toList :+ Int.MaxValue)
      for (e <- 0 until g.m; cap <- caps) {
        assert(scratch.computeHIndex(e, h, hval, cap) == math.min(cap, uncapped(e)), s"graph$i h=$h e=$e cap=$cap")
        if (cap > 0 && uncapped(e) > cap) stops += 1
      }
      // The edge phase caps each edge by its own value: 0, small, or past its ball.
      val index = ballIndex(g, h)
      val all   = new java.util.BitSet(g.m); all.set(0, g.m)
      val out   = hval.clone()
      scratch.storeHIndices(index, 0, g.m, all, hval, out, live = false)
      for (e <- 0 until g.m) assert(out(e) == math.min(hval(e), uncapped(e)), s"graph$i h=$h e=$e (edge phase)")
    }
    assert(stops > 0)
  }

  test("key freshness: stale when new, fresh once stored, stale again when a walk's key filter reaches it") {
    val rng = new scala.util.Random(18)
    var marked, kept = 0
    for ((edges, i) <- TestGraphs.randomPool(6, 20, 1810).zipWithIndex; h <- 1 to 3) {
      val g       = LocalGraph.fromEdges(edges)
      val hval    = Array.fill(g.m)(rng.nextInt(6))
      val scratch = new HopScratch(g)
      val index   = ballIndex(g, h)
      for (v <- 0 until g.n) assert(index.stale(v), s"graph$i h=$h v=$v (new index)")
      for (v <- 0 until g.n) {
        scratch.storeKeys(v, index, hval)
        assert(!index.stale(v), s"graph$i h=$h v=$v (stored)")
        for (w <- v + 1 until g.n) assert(index.stale(w), s"graph$i h=$h v=$v w=$w (not yet stored)")
      }
      for (root <- 0 until g.n) {
        for (v <- 0 until g.n) scratch.storeKeys(v, index, hval)
        val nw   = rng.nextInt(7)
        scratch.walk(root, index, hval, Int.MaxValue, nw, null)
        val near = (index.start(root) until index.nearEnd(root)).map(j => index.ballVert(j) -> index.keys(j)).toMap
        for (z <- 0 until g.n) {
          val reached = near.get(z).exists(_ > nw)
          assert(index.stale(z) == reached, s"graph$i h=$h root=$root nw=$nw z=$z")
          if (reached && z != root) marked += 1
          if (near.contains(z) && !reached) kept += 1
        }
      }
    }
    assert(marked > 0 && kept > 0, s"marked=$marked kept=$kept")
  }

  test("after every round, keys that are not stale are the keys of the current values") {
    for ((edges, i) <- (TestGraphs.randomPool(6, 24, 1710) :+ GraphGen.chungLu(120, 300, 2.3, 77)).zipWithIndex;
         h <- 1 to 3; async <- Seq(false, true); pruning <- Seq(false, true)) {
      val g       = LocalGraph.fromEdges(edges)
      val scratch = new HopScratch(g)
      val index   = ballIndex(g, h)
      val fresh   = ballIndex(g, h)
      val hcur    = new Array[Int](g.m)
      scratch.storeSupports(index, 0, g.m, hcur)
      val hprev   = new Array[Int](g.m)
      val active  = new java.util.BitSet(g.m); active.set(0, g.m)
      val next    = new java.util.BitSet(g.m)
      var round   = 0
      var done    = false
      // The engine's round loop on one thread, with the changed edges of a
      // round merged per endpoint before the walk.
      while (!done) {
        round += 1
        System.arraycopy(hcur, 0, hprev, 0, g.m)
        scratch.storeHIndices(index, 0, g.m, active, if (async) hcur else hprev, hcur, async)
        val drops = active.stream.toArray.toSeq.filter(e => hcur(e) != hprev(e))
          .flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e)).map(_ -> e)).groupMap(_._1)(_._2)
        for ((root, es) <- drops)
          scratch.walk(root, index, hcur, es.map(hprev).max, es.map(hcur).min, if (pruning) next else null)
        for (v <- 0 until g.n) scratch.storeKeys(v, fresh, hcur)
        for (v <- 0 until g.n if !index.stale(v); j <- index.start(v) until index.end(v))
          assert(index.keys(j) == fresh.keys(j), s"graph$i h=$h async=$async pruning=$pruning round=$round v=$v")
        if (pruning) { active.clear(); active.or(next); next.clear(); done = active.isEmpty }
        else done = drops.isEmpty
      }
      assert(hcur.map(_ + 2).toSeq == BaselinePeeling.trussness(g, h).toSeq, s"graph$i h=$h")
    }
  }

  test("synchronous rounds are deterministic and thread-count independent") {
    // In round 1 every key is stale, so threads race to rewrite the same
    // destinations' keys; a cut run exposes the values of that round.
    val g = LocalGraph.fromEdges(GraphGen.chungLu(120, 300, 2.3, 77))
    for (maxRounds <- Seq(1, 2, LocalHIndexConfig().maxRounds)) {
      def run(threads: Int) =
        LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = threads, maxRounds = maxRounds))
      val r1  = run(1)
      val r4  = run(4)
      val r16 = run(16)
      assert(r1.trussness.toSeq == r4.trussness.toSeq, s"maxRounds=$maxRounds")
      assert(r1.trussness.toSeq == r16.trussness.toSeq, s"maxRounds=$maxRounds")
      assert(r1.rounds == r4.rounds && r4.rounds == r16.rounds, s"maxRounds=$maxRounds")
    }
  }

  test("indexed rounds match Jacobi rounds of the per-edge reference kernel") {
    for ((edges, h) <- Seq(
        (TestGraphs.fig1Like, 3),
        (GraphGen.chungLu(120, 300, 2.3, 77), 2),
        (GraphGen.erdosRenyi(200, 400, 44), 3))) {
      val g = LocalGraph.fromEdges(edges)
      for (maxRounds <- Seq(1, 2, LocalHIndexConfig().maxRounds)) {
        val (expect, expectRounds) = jacobi(g, h, maxRounds)
        for (threads <- Seq(1, 4)) {
          val c   = LocalHIndexConfig(threads = threads, maxRounds = maxRounds)
          val got = LocalHIndexDecomposition.decompose(g, h, c)
          assert(got.trussness.toSeq == expect, s"h=$h $c")
          assert(got.rounds == expectRounds, s"h=$h $c")
        }
        // Lemma 4 skips only edges a Jacobi round would not change, but a
        // pruned run can stop without the final no-change round.
        val c      = LocalHIndexConfig(threads = 4, pruning = true, maxRounds = maxRounds)
        val pruned = LocalHIndexDecomposition.decompose(g, h, c)
        assert(pruned.trussness.toSeq == expect, s"h=$h $c")
        assert(pruned.rounds == expectRounds || pruned.rounds == expectRounds - 1, s"h=$h $c")
      }
      // Asynchronous round counts depend on scheduling; the result does not.
      val (tau, _) = jacobi(g, h, LocalHIndexConfig().maxRounds)
      for (cfg <- Seq(LocalHIndexConfig(threads = 4, async = true),
                      LocalHIndexConfig(threads = 4, async = true, pruning = true)))
        assert(LocalHIndexDecomposition.decompose(g, h, cfg).trussness.toSeq == tau, s"h=$h $cfg")
    }
  }

  test("a ball index over the cap is rejected with the bytes it needs") {
    val g = LocalGraph.fromEdges(GraphGen.chungLu(120, 300, 2.3, 77))
    val h = 2
    val index  = ballIndex(g, h)
    val needed = 8L * index.ballVert.length + 4L * index.ballOff.length + 4L * g.n
    for (cfg <- Seq(LocalHIndexConfig(threads = 4), LocalHIndexConfig(threads = 4, async = true),
                    LocalHIndexConfig(threads = 4, async = true, pruning = true))) {
      for (cap <- Seq(0L, needed - 1)) {
        val err = intercept[IllegalArgumentException](LocalHIndexDecomposition.run(g, h, cfg, storeBytes = cap))
        assert(err.getMessage.contains(s"needs $needed bytes"), s"$cfg cap=$cap: ${err.getMessage}")
      }
      val atCap = LocalHIndexDecomposition.run(g, h, cfg, storeBytes = needed)
      assert(atCap.trussness.toSeq == LocalHIndexDecomposition.decompose(g, h, cfg).trussness.toSeq, s"$cfg")
    }
  }

  test("an index for a given edge phase has no keys and needs 4 bytes per ball entry") {
    val g       = LocalGraph.fromEdges(GraphGen.chungLu(120, 300, 2.3, 77))
    val h       = 2
    val index   = ballIndex(g, h)
    val keyless = 4L * index.ballVert.length + 4L * index.ballOff.length + 4L * g.n
    val noOp: LocalHIndexDecomposition.EdgePhase = (_, _, _, _) => ()
    val cfg     = LocalHIndexConfig(threads = 4)
    val err = intercept[IllegalArgumentException](
      LocalHIndexDecomposition.run(g, h, cfg, storeBytes = keyless - 1, edgePhase = Some(noOp)))
    assert(err.getMessage.contains(s"needs $keyless bytes"), err.getMessage)
    val res = LocalHIndexDecomposition.run(g, h, cfg, storeBytes = keyless, edgePhase = Some(noOp))
    assert(res.converged && res.rounds == 1)
    val supports = (0 until g.m).map(e => g.commonHNeighbors(g.edgeSrc(e), g.edgeDst(e), h).size + 2)
    assert(res.trussness.toSeq == supports)
    // The default edge phase reads the keys, so the same cap is too small for
    // it, but not for a run of no rounds.
    intercept[IllegalArgumentException](LocalHIndexDecomposition.run(g, h, cfg, storeBytes = keyless))
    val noRounds = LocalHIndexDecomposition.run(g, h, cfg.copy(maxRounds = 0), storeBytes = keyless)
    assert(noRounds.trussness.toSeq == supports)
  }

  test("h beyond n - 1 hops gives the baseline's trussness") {
    val g = LocalGraph.fromEdges(GraphGen.smallWorld(40, 4, 0.1, 5))
    for (h <- Seq(g.n, 1 << 22, Int.MaxValue)) {
      val expect = BaselinePeeling.trussness(g, h).toSeq
      for (cfg <- Seq(LocalHIndexConfig(threads = 4), LocalHIndexConfig(threads = 4, async = true, pruning = true)))
        assert(LocalHIndexDecomposition.decompose(g, h, cfg).trussness.toSeq == expect, s"h=$h $cfg")
    }
  }

  test("sequential async needs no more rounds than sync (Fig. 6 effect)") {
    for (seed <- 0 until 6) {
      val g = LocalGraph.fromEdges(GraphGen.smallWorld(80, 6, 0.15, 60 + seed))
      val sync = LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = 1))
      val asyn = LocalHIndexDecomposition.decompose(
        g, 2, LocalHIndexConfig(threads = 1, async = true))
      assert(asyn.rounds <= sync.rounds, s"seed=$seed: ${asyn.rounds} > ${sync.rounds}")
    }
  }

  test("monotone convergence: trussness - 2 <= initial support") {
    val g = LocalGraph.fromEdges(GraphGen.chungLu(60, 150, 2.2, 91))
    val r = LocalHIndexDecomposition.decompose(g, 2, LocalHIndexConfig(threads = 2))
    val sup = HSupport.local(g, 2)
    for (e <- 0 until g.m) assert(r.trussness(e) - 2 <= sup(e))
  }

  test("h < 1 and a negative maxRounds are rejected") {
    val g = LocalGraph.fromEdges(TestGraphs.fig1Like)
    for ((name, cfg) <- variants) {
      intercept[IllegalArgumentException](LocalHIndexDecomposition.decompose(g, 0, cfg))
      intercept[IllegalArgumentException](LocalHIndexDecomposition.decompose(g, 2, cfg.copy(maxRounds = -1)))
    }
  }

  test("budget exceeded raises Budget.Exceeded") {
    val g = LocalGraph.fromEdges(GraphGen.smallWorld(400, 8, 0.1, 3))
    for (pruning <- Seq(false, true)) intercept[Budget.Exceeded] {
      LocalHIndexDecomposition.decompose(
        g, 3, LocalHIndexConfig(threads = 4, pruning = pruning, deadlineNanos = System.nanoTime() + 1000L))
    }
  }

  test("empty graph converges immediately") {
    val r = LocalHIndexDecomposition.decompose(LocalGraph.fromEdges(Seq.empty), 2)
    assert(r.trussness.isEmpty && r.rounds == 0 && r.converged)
  }

  test("a run cut at maxRounds before the fixpoint reports that it did not converge") {
    val g = LocalGraph.fromEdges(GraphGen.chungLu(120, 300, 2.3, 77))
    for ((name, cfg) <- variants) {
      val cut  = LocalHIndexDecomposition.decompose(g, 2, cfg.copy(maxRounds = 1))
      val full = LocalHIndexDecomposition.decompose(g, 2, cfg)
      assert(full.rounds > 1, name)
      assert(!cut.converged && cut.rounds == 1, name)
      assert(full.converged, name)
    }
  }
}
