package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** Dataset analogues: sizes match the spec, generation is deterministic. */
class DatasetsSpec extends AnyFunSuite {

  test("all six paper datasets are present, in Table 1 order") {
    assert(Datasets.all.map(_.code) == Seq("YT", "VL", "SC", "GA", "AM", "AN"))
  }

  test("full-scale datasets match the paper's |E| exactly") {
    for (ds <- Seq(Datasets.YT, Datasets.VL, Datasets.SC)) {
      assert(ds.scale == 1.0)
      assert(ds.targetE == ds.paperE, ds.code)
      assert(ds.edges.length == ds.paperE, ds.code)
    }
  }

  test("scaled datasets match their declared scaled |E|") {
    for (ds <- Seq(Datasets.GA, Datasets.AM, Datasets.AN)) {
      assert(ds.scale < 1.0)
      assert(ds.edges.length == ds.targetE, ds.code)
    }
  }

  test("generator targets are the KONECT sizes times the scale, rounded") {
    val targets = Datasets.all.map(ds => ds.code -> (ds.paperV, ds.paperE, ds.targetV, ds.targetE)).toMap
    assert(targets("GA") == (36682, 88328, 9171, 22082))
    assert(targets("AM") == (262111, 1234877, 5242, 24698))
    assert(targets("AN") == (334863, 925872, 6697, 18517))
  }

  test("vertex counts are close to the declared |V|") {
    // Random generators may leave a few vertices isolated (not in any edge);
    // the realized vertex count must stay within 15% of the target.
    for (ds <- Datasets.all) {
      val g = ds.localGraph
      assert(g.n <= ds.targetV, s"${ds.code}: ${g.n} > ${ds.targetV}")
      assert(g.n >= (ds.targetV * 0.85).toInt, s"${ds.code}: ${g.n} too small")
    }
  }

  test("edge lists are pinned: size and Seq hash of each analogue") {
    // Every benchmark workload and table reads these graphs, so a change to
    // a generator must not change them unnoticed.
    val pinned = Map("YT" -> (2227, 1606979053), "VL" -> (6726, -371949498), "SC" -> (20573, -374441551),
                     "GA" -> (22082, -1857436867), "AM" -> (24698, 846544999), "AN" -> (18517, 1292082579))
    for (ds <- Datasets.all) {
      val e = ds.edges
      assert((e.length, e.hashCode) == pinned(ds.code), ds.code)
    }
  }

  test("generation is deterministic") {
    for (ds <- Seq(Datasets.YT, Datasets.AN))
      assert(ds.edges == ds.edges)
  }

  test("edges are canonical and distinct") {
    for (ds <- Datasets.all) {
      val e = ds.edges
      assert(e.forall { case (u, v) => u < v }, ds.code)
      assert(e.distinct.length == e.length, ds.code)
    }
  }

  test("AN (small-world mix) has more triangles per edge than GA (p2p)") {
    def triangleRate(ds: DatasetSpec): Double = {
      val g   = ds.localGraph
      val sup = repro.core.HSupport.local(g, 1)
      sup.sum.toDouble / g.m
    }
    assert(triangleRate(Datasets.AN) > triangleRate(Datasets.GA))
  }
}
