/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in FaasCache (trace generation, sampling,
 * SHARDS hashing) flows through this class. The generator and every
 * distribution are implemented by hand so that results are bit-identical
 * across standard libraries and platforms — std::*_distribution is
 * implementation-defined and would break golden tests.
 */
#ifndef FAASCACHE_UTIL_RNG_H_
#define FAASCACHE_UTIL_RNG_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace faascache {

/**
 * Deterministic random number generator (xoshiro256** seeded via
 * SplitMix64) with a set of hand-rolled distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1) with 53 random mantissa bits. */
    double uniform()
    {
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Exponentially distributed value with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller (cached second deviate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Pareto with scale x_m > 0 and shape alpha > 0. */
    double pareto(double x_m, double alpha);

    /**
     * Poisson-distributed count with the given mean (>= 0). Uses Knuth's
     * method for means below 30 and a clamped normal approximation for
     * larger ones.
     *
     * Knuth's method returns 0 when its first uniform u is <= e^-mean.
     * u is first compared against poissonZeroBound(mean), which never
     * exceeds the computed e^-mean, so most zero counts of a small mean
     * cost one uniform and no exp(); otherwise the loop continues from
     * the same u. Counts and consumed uniforms are those of the plain
     * loop for every mean (DESIGN.md §4h).
     */
    std::int64_t poisson(double mean)
    {
        assert(mean >= 0);
        if (mean == 0)
            return 0;
        if (mean < 30.0) {
            const double u = uniform();
            if (u <= poissonZeroBound(mean))
                return 0;
            return poissonKnuthTail(mean, u);
        }
        return poissonNormal(mean);
    }

    /**
     * A lower bound of e^-mean as computed by std::exp: 1 - mean - 2^-48.
     * e^-x >= 1 - x for every x, and the 2^-48 margin exceeds the
     * rounding of 1 - mean plus a one-ulp error of exp() (an ulp is at
     * most 2^-53 below 1). Negative, hence never met, for mean >= 1.
     */
    static double poissonZeroBound(double mean)
    {
        return 1.0 - mean - 0x1.0p-48;
    }

    /**
     * Sample an index in [0, weights.size()) with probability proportional
     * to weights[i]. Requires at least one strictly positive weight.
     */
    std::size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

    /** Split off an independent child generator (for parallel streams). */
    Rng split();

    /**
     * Stateless 64-bit mix of a key (SplitMix64 finalizer); used for
     * SHARDS-style hash sampling.
     */
    static std::uint64_t hashMix(std::uint64_t key);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Knuth's loop for 0 < mean < 30, resumed after its first uniform
     *  `u` (> poissonZeroBound(mean)). */
    std::int64_t poissonKnuthTail(double mean, double u);

    /** Clamped normal approximation for mean >= 30 (or NaN). */
    std::int64_t poissonNormal(double mean);

    std::uint64_t state_[4];
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace faascache

#endif  // FAASCACHE_UTIL_RNG_H_
