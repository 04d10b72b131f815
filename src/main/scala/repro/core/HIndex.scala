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
    * sequence is non-increasing, Thm. 1). This form allocates its counting
    * array.
    */
  def boundedHIndex(values: Array[Int], len: Int, cap: Int): Int = {
    val bound = math.min(cap.toLong, len.toLong).toInt
    if (bound <= 0) 0 else countDown(values, len, bound, new Array[Int](bound + 1))
  }

  /** The engines' hot path: [[boundedHIndex]] counting in their scratch's
    * ``counts``, which must be longer than ``min(cap, len)``; its first
    * ``min(cap, len) + 1`` slots are overwritten.
    */
  def boundedHIndex(values: Array[Int], len: Int, cap: Int, counts: Array[Int]): Int = {
    val bound = math.min(cap.toLong, len.toLong).toInt
    if (bound <= 0) return 0
    java.util.Arrays.fill(counts, 0, bound + 1, 0)
    countDown(values, len, bound, counts)
  }

  /** H-index bounded by ``bound >= 1``, counting in ``counts``, which is
    * zero in slots ``0 .. bound``.
    */
  private def countDown(values: Array[Int], len: Int, bound: Int, counts: Array[Int]): Int = {
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
