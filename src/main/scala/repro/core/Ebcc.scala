package repro.core

import scala.util.Random

/** Enhanced Bayesian Classifier Combination (Li et al., ICML 2019),
  * simplified: each class is a mixture of K latent subtypes, and each LF has
  * a per-(class, subtype) categorical emission table over {-1, 0, +1}.
  *
  * This captures EBCC's core idea — modeling inter-LF correlation through
  * shared latent subtypes (a low-rank decomposition of the joint vote
  * distribution) — fitted with plain EM over the joint (class, subtype)
  * responsibilities rather than full variational inference.
  */
class Ebcc(numSubtypes: Int = 2, iters: Int = 80) extends LabelModel {
  val name = "EBCC"

  private def sym(v: Int): Int = v + 1

  def fitPredict(votes: Array[Array[Int]], seed: Long = 0L): Array[Double] = {
    val n = votes.length
    if (n == 0) return Array.empty
    val m = votes(0).length
    val K = numSubtypes
    val rng = new Random(seed)
    val mv  = MajorityVote.fitPredict(votes)

    // r(i)(c)(k): joint responsibility; init from MV with random subtype split.
    var r = Array.tabulate(n) { i =>
      val base = Array(1.0 - mv(i), mv(i))
      Array.tabulate(2) { c =>
        val split = Array.fill(K)(0.5 + rng.nextDouble())
        val tot = split.sum
        Array.tabulate(K)(k => base(c) * split(k) / tot)
      }
    }

    var iter = 0
    while (iter < iters) {
      // M-step: class prior, subtype weights, emission tables (smoothed).
      val prior = Array.fill(2)(1.0)
      val rho   = Array.fill(2, K)(1.0)
      val pi    = Array.fill(m, 2, K, 3)(0.5)
      var i = 0
      while (i < n) {
        for (c <- 0 until 2; k <- 0 until K) {
          val w = r(i)(c)(k)
          prior(c) += w
          rho(c)(k) += w
          var j = 0
          while (j < m) { pi(j)(c)(k)(sym(votes(i)(j))) += w; j += 1 }
        }
        i += 1
      }
      val priorSum = prior.sum
      for (c <- 0 until 2) {
        val rs = rho(c).sum
        for (k <- 0 until K) rho(c)(k) /= rs
      }
      for (j <- 0 until m; c <- 0 until 2; k <- 0 until K) {
        val tot = pi(j)(c)(k).sum
        for (s <- 0 until 3) pi(j)(c)(k)(s) /= tot
      }
      // E-step: joint posterior over (c, k).
      val next = Array.ofDim[Array[Array[Double]]](n)
      i = 0
      while (i < n) {
        val logp = Array.tabulate(2, K) { (c, k) =>
          var l = math.log(prior(c) / priorSum) + math.log(rho(c)(k))
          var j = 0
          while (j < m) { l += math.log(pi(j)(c)(k)(sym(votes(i)(j)))); j += 1 }
          l
        }
        val mx = logp.map(_.max).max
        val ex = logp.map(_.map(v => math.exp(v - mx)))
        val tot = ex.map(_.sum).sum
        next(i) = ex.map(_.map(_ / tot))
        i += 1
      }
      r = next
      iter += 1
    }
    // P(match) as a ratio of subtype sums: a sum of K normalised entries can
    // round to 1 + 2^-52, while s1 / (s0 + s1) with s1 <= s0 + s1 cannot exceed 1.
    r.map { ri => val s1 = ri(1).sum; s1 / (ri(0).sum + s1) }
  }
}

object Ebcc extends Ebcc(2, 80)
