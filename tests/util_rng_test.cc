#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

namespace faascache {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1'000; ++i) {
        const double u = rng.uniform(-5.0, 3.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntWithinBound)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1'000; ++i) {
        const std::uint64_t v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformIntOneIsAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ExponentialNonNegative)
{
    Rng rng(17);
    for (int i = 0; i < 1'000; ++i)
        EXPECT_GE(rng.exponential(0.001), 0.0);
}

TEST(Rng, NormalMoments)
{
    Rng rng(23);
    const int n = 200'000;
    double sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(29);
    const int n = 100'000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(31);
    std::vector<double> values;
    const int n = 50'001;
    for (int i = 0; i < n; ++i)
        values.push_back(rng.lognormal(std::log(7.0), 1.0));
    std::sort(values.begin(), values.end());
    EXPECT_NEAR(values[n / 2], 7.0, 0.3);
}

TEST(Rng, ParetoBoundedBelowByScale)
{
    Rng rng(37);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(41);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(43);
    const int n = 200'000;
    std::int64_t sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(2.5);
    EXPECT_NEAR(static_cast<double>(sum) / n, 2.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox)
{
    Rng rng(47);
    const int n = 50'000;
    std::int64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        const std::int64_t v = rng.poisson(100.0);
        EXPECT_GE(v, 0);
        sum += v;
    }
    EXPECT_NEAR(static_cast<double>(sum) / n, 100.0, 0.5);
}

/** The plain Knuth loop (and the normal approximation past 30) that
 *  Rng::poisson must reproduce draw for draw. */
std::int64_t
knuthPoisson(Rng& rng, double mean)
{
    if (mean == 0)
        return 0;
    if (mean < 30.0) {
        const double limit = std::exp(-mean);
        std::int64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= rng.uniform();
        } while (p > limit);
        return k - 1;
    }
    const double v = rng.normal(mean, std::sqrt(mean));
    return std::max<std::int64_t>(0,
                                  static_cast<std::int64_t>(std::lround(v)));
}

/** Zero, the smallest subnormal, tiny, small, around 1, both sides of
 *  the normal-approximation switch at 30, and far past it. */
const std::vector<double> kPoissonMeans = {
    0.0,
    std::numeric_limits<double>::denorm_min(),
    1e-300,
    0x1.0p-53,
    1e-9,
    0.017,
    0.5,
    std::nextafter(1.0, 0.0),
    1.0,
    2.5,
    29.999,
    30.0,
    240.0,
};

TEST(Rng, PoissonMatchesKnuthOracleDrawForDraw)
{
    for (const double mean : kPoissonMeans) {
        for (std::uint64_t seed = 0; seed < 1'000; ++seed) {
            Rng fast(seed);
            Rng oracle(seed);
            for (int draw = 0; draw < 5; ++draw) {
                ASSERT_EQ(fast.poisson(mean), knuthPoisson(oracle, mean))
                    << "mean " << mean << " seed " << seed << " draw "
                    << draw;
            }
            // Same uniforms consumed: the generators stay in lockstep.
            ASSERT_EQ(fast.nextU64(), oracle.nextU64())
                << "mean " << mean << " seed " << seed;
        }
    }
}

TEST(Rng, PoissonZeroBoundStaysAnUlpBelowExp)
{
    // The fast path answers 0 for u <= bound without computing exp, so
    // the bound must sit below std::exp(-mean) even if exp() were off by
    // one ulp. Check the listed means and every power of two below 1.
    std::vector<double> means = kPoissonMeans;
    for (int e = -1; e >= -1074; --e)
        means.push_back(std::ldexp(1.0, e));
    for (const double mean : means) {
        if (mean == 0 || !(mean < 30.0))
            continue;
        EXPECT_LE(Rng::poissonZeroBound(mean),
                  std::nextafter(std::exp(-mean), 0.0))
            << "mean " << mean;
    }
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(53);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 40'000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.15);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(59);
    const auto perm = rng.permutation(100);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationEmpty)
{
    Rng rng(59);
    EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(61);
    Rng child = a.split();
    // The child differs from a fresh copy of the parent's continuation.
    Rng b(61);
    b.split();
    EXPECT_NE(child.nextU64(), a.nextU64());
}

TEST(Rng, HashMixDeterministicAndSpread)
{
    EXPECT_EQ(Rng::hashMix(42), Rng::hashMix(42));
    std::set<std::uint64_t> values;
    for (std::uint64_t k = 0; k < 1'000; ++k)
        values.insert(Rng::hashMix(k));
    EXPECT_EQ(values.size(), 1'000u);
}

}  // namespace
}  // namespace faascache
