package repro.core

/** The H-index operator 𝓗(S): the largest ``y`` such that at least ``y``
  * values in the multiset ``S`` are ``>= y`` (Hirsch index). This is the
  * contraction the whole parallel framework iterates (Section 4.1).
  */
object HIndex {

  /** H-index of the first ``len`` slots of ``values``, all non-negative,
    * with an upper bound ``cap``: ``min(cap, 𝓗(values.take(len)))``, but
    * using a counting array of size ``bound + 1``, ``bound = min(cap,
    * len)`` — O(len) time, no sort. The engines count contributions the
    * same way in their scratch ([[HopScratch]]), with the previous-round
    * value as cap (the sequence is non-increasing, Thm. 1), and share
    * [[countDown]].
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
    countDown(counts, bound, counts(bound))
  }

  /** H-index bounded by ``bound >= 1`` of values counted as ``counts(c)``
    * values equal to ``c < bound`` and ``top`` values ``>= bound``.
    */
  private[core] def countDown(counts: Array[Int], bound: Int, top: Int): Int = {
    var h   = bound
    var acc = top
    while (h > 0) {
      if (acc >= h) return h
      h -= 1
      acc += counts(h)
    }
    0
  }
}
