package repro.graph

import repro.{SparkSpec, TestGraphs}

/** Canonical edge-list substrate: orientation, dedup, ids. */
class EdgeListSpec extends SparkSpec {

  test("canonicalize orients edges src < dst") {
    val df = EdgeList.fromPairs(spark, Seq((2, 1), (1, 2), (3, 1)))
    val rows = df.collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(rows == Set((1, 2), (1, 3)))
  }

  test("canonicalize drops self-loops") {
    val df = EdgeList.fromPairs(spark, Seq((1, 1), (1, 2), (7, 7)))
    assert(df.count() == 1)
  }

  test("canonicalize deduplicates both orientations") {
    val df = EdgeList.fromPairs(spark, Seq((1, 2), (2, 1), (1, 2)))
    assert(df.count() == 1)
  }

  test("eid is deterministic and injective on canonical pairs") {
    val pairs = for (u <- 0 until 40; v <- u + 1 until 40) yield (u, v)
    val ids = pairs.map { case (u, v) => EdgeList.eid(u, v) }
    assert(ids.distinct.length == ids.length)
    assert(EdgeList.eid(3, 5) == EdgeList.eid(3, 5))
  }

  test("eid column matches eid function") {
    val df = EdgeList.fromPairs(spark, TestGraphs.k4)
    df.collect().foreach { r =>
      assert(r.getLong(2) == EdgeList.eid(r.getInt(0), r.getInt(1)))
    }
  }

  test("oriented doubles every canonical edge") {
    val df = EdgeList.fromPairs(spark, TestGraphs.k5)
    assert(EdgeList.oriented(df).count() == 2 * df.count())
  }

  test("oriented contains both directions of each edge") {
    val df = EdgeList.fromPairs(spark, Seq((1, 2)))
    val got = EdgeList.oriented(df).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(got == Set((1, 2), (2, 1)))
  }

  test("canonicalize is idempotent") {
    val once  = EdgeList.fromPairs(spark, Seq((5, 3), (3, 5), (2, 9)))
    val twice = EdgeList.canonicalize(once.select("src", "dst"))
    assert(once.select("src", "dst", "eid").collect().toSet ==
           twice.collect().toSet)
  }
}
