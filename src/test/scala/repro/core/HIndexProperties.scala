package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.NaiveReference

/** Randomized H-index laws via ScalaCheck's own sbt framework (the
  * scalatest bridge artifact is unavailable offline).
  */
object HIndexProperties extends Properties("HIndex") {

  private val values = Gen.listOf(Gen.choose(0, 30))

  /** The uncapped H-index of ``vs``. */
  private def hIndex(vs: List[Int]): Int = {
    val arr = vs.toArray
    HIndex.boundedHIndex(arr, arr.length, Int.MaxValue)
  }

  property("matches sort-based reference") = Prop.forAll(values) { vs =>
    hIndex(vs) == NaiveReference.hIndex(vs)
  }

  property("definitional bound: >= h values are >= h") = Prop.forAll(values) { vs =>
    val h = hIndex(vs)
    vs.count(_ >= h) >= h && vs.count(_ >= h + 1) < h + 1
  }

  property("permutation invariant") = Prop.forAll(values, Gen.long) { (vs, seed) =>
    hIndex(new scala.util.Random(seed).shuffle(vs)) == hIndex(vs)
  }

  property("monotone in pointwise increase") = Prop.forAll(values) { vs =>
    hIndex(vs.map(_ + 1)) >= hIndex(vs)
  }

  property("bounded overload = min(cap, h)") =
    Prop.forAll(values, Gen.choose(0, 15)) { (vs, cap) =>
      HIndex.boundedHIndex(vs.toArray, vs.size, cap) == math.min(cap, NaiveReference.hIndex(vs))
    }
}
