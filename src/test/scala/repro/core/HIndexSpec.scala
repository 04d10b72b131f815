package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.NaiveReference

/** The H-index primitive, ``HIndex.boundedHIndex``, against hand cases and
  * the sort-based reference.
  */
class HIndexSpec extends AnyFunSuite {

  /** The uncapped H-index of ``vals``. */
  private def hIndex(vals: Seq[Int]): Int = {
    val arr = vals.toArray
    HIndex.boundedHIndex(arr, arr.length, Int.MaxValue)
  }

  test("hand cases") {
    assert(hIndex(Seq.empty) == 0)
    assert(hIndex(Seq(0)) == 0)
    assert(hIndex(Seq(1)) == 1)
    assert(hIndex(Seq(5)) == 1)
    assert(hIndex(Seq(1, 1, 1)) == 1)
    assert(hIndex(Seq(3, 3, 3)) == 3)
    assert(hIndex(Seq(4, 4, 4, 4, 4)) == 4)
    assert(hIndex(Seq(10, 8, 5, 4, 3)) == 4)
    assert(hIndex(Seq(25, 8, 5, 3, 3)) == 3)
  }

  test("definition: at least h values are >= h, and not h+1") {
    for (seed <- 0 until 50) {
      val rng = new scala.util.Random(seed)
      val vals = Seq.fill(rng.nextInt(20))(rng.nextInt(15))
      val h = hIndex(vals)
      assert(vals.count(_ >= h) >= h)
      assert(vals.count(_ >= h + 1) < h + 1)
    }
  }

  test("matches the sort-based reference implementation") {
    for (seed <- 0 until 100) {
      val rng  = new scala.util.Random(1000 + seed)
      val vals = Seq.fill(rng.nextInt(30))(rng.nextInt(20))
      assert(hIndex(vals) == NaiveReference.hIndex(vals), vals.toString)
    }
  }

  test("bounded by size and by max") {
    for (seed <- 0 until 30) {
      val rng  = new scala.util.Random(2000 + seed)
      val vals = Seq.fill(1 + rng.nextInt(25))(rng.nextInt(12))
      val h = hIndex(vals)
      assert(h <= vals.size && h <= vals.max)
    }
  }

  test("monotone: adding an element never decreases the h-index") {
    for (seed <- 0 until 30) {
      val rng  = new scala.util.Random(3000 + seed)
      val vals = Seq.fill(rng.nextInt(15))(rng.nextInt(10))
      assert(hIndex(vals :+ rng.nextInt(10)) >= hIndex(vals))
    }
  }

  test("boundedHIndex equals min(cap, hIndex)") {
    for (seed <- 0 until 50; cap <- Seq(0, 1, 2, 3, 5, 100)) {
      val rng  = new scala.util.Random(4000 + seed)
      val vals = Seq.fill(rng.nextInt(20))(rng.nextInt(15))
      assert(HIndex.boundedHIndex(vals.toArray, vals.size, cap) == math.min(cap, NaiveReference.hIndex(vals)))
    }
  }

  test("array-slice overload agrees with the sort-based reference") {
    for (seed <- 0 until 50) {
      val rng = new scala.util.Random(5000 + seed)
      val arr = Array.fill(30)(rng.nextInt(15))
      val len = rng.nextInt(31)
      val cap = rng.nextInt(10)
      val expect = math.min(cap, NaiveReference.hIndex(arr.take(len).toSeq))
      assert(HIndex.boundedHIndex(arr, len, cap) == expect)
    }
  }
}
