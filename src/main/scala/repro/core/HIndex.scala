package repro.core

/** The H-index operator 𝓗(S): the largest ``y`` such that at least ``y``
  * values in the multiset ``S`` are ``>= y`` (Hirsch index). This is the
  * contraction the whole parallel framework iterates (Section 4.1).
  */
object HIndex {

  /** H-index of a multiset of non-negative values. 𝓗(∅) = 0. */
  def hIndex(values: Seq[Int]): Int = {
    values.foreach(v => require(v >= 0, s"h-index input must be non-negative, got $v"))
    val arr = values.toArray
    boundedHIndex(arr, arr.length, Int.MaxValue)
  }

  /** H-index of the first ``len`` slots of ``values`` with an upper bound
    * ``cap``: equivalent to ``min(cap, hIndex(values.take(len)))`` but
    * using a counting array of size ``min(cap, len) + 1`` — O(len) time,
    * no sort. The engines pass the previous-round value as cap (the
    * sequence is non-increasing, Thm. 1); this is their hot path.
    */
  def boundedHIndex(values: Array[Int], len: Int, cap: Int): Int = {
    val bound = math.min(cap.toLong, len.toLong).toInt
    if (bound <= 0) return 0
    val counts = new Array[Int](bound + 1)
    var i = 0
    while (i < len) {
      val v = values(i)
      counts(if (v < bound) v else bound) += 1
      i += 1
    }
    var h   = bound
    var acc = 0
    while (h > 0) {
      acc += counts(h)
      if (acc >= h) return h
      h -= 1
    }
    0
  }
}
