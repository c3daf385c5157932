// Property-style sweeps over the analysis substrate: hit-ratio-curve
// laws and reuse-distance equivalences on randomized traces.
#include <gtest/gtest.h>

#include "analysis/hit_ratio_curve.h"
#include "analysis/reuse_distance.h"
#include "analysis/shards.h"
#include "support/reuse_distance_naive.h"
#include "trace/azure_model.h"
#include "util/rng.h"

namespace faascache {
namespace {

class AnalysisProperties : public testing::TestWithParam<std::uint64_t>
{
  protected:
    Trace
    randomTrace() const
    {
        AzureModelConfig config;
        config.seed = GetParam();
        config.num_functions = 80 + (GetParam() % 5) * 40;
        config.duration_us = 10 * kMinute;
        config.iat_median_sec = 15.0;
        return generateAzureTrace(config);
    }
};

TEST_P(AnalysisProperties, FenwickMatchesNaive)
{
    const Trace t = randomTrace();
    EXPECT_EQ(computeReuseDistances(t), computeReuseDistancesNaive(t));
}

TEST_P(AnalysisProperties, CurveIsMonotoneCdf)
{
    const Trace t = randomTrace();
    const HitRatioCurve curve =
        HitRatioCurve::fromReuseDistances(computeReuseDistances(t));
    double prev = -1.0;
    for (MemMb size = 0; size < 60'000; size += 1'500) {
        const double h = curve.hitRatio(size);
        EXPECT_GE(h, prev);
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, curve.maxHitRatio() + 1e-12);
        prev = h;
    }
}

TEST_P(AnalysisProperties, InverseIsRightContinuousLowerBound)
{
    const Trace t = randomTrace();
    const HitRatioCurve curve =
        HitRatioCurve::fromReuseDistances(computeReuseDistances(t));
    Rng rng(GetParam());
    for (int i = 0; i < 32; ++i) {
        const double target = rng.uniform(0.0, 1.0);
        const MemMb size = curve.sizeForHitRatio(target);
        EXPECT_GE(curve.hitRatio(size) + 1e-12,
                  std::min(target, curve.maxHitRatio()));
        // Minimality at a coarse granularity: a 5% smaller cache cannot
        // still meet the target unless the curve is flat there.
        if (size > 1.0) {
            EXPECT_LE(curve.hitRatio(size * 0.95),
                      curve.hitRatio(size) + 1e-12);
        }
    }
}

TEST_P(AnalysisProperties, CompulsoryMissesEqualUniqueFunctions)
{
    const Trace t = randomTrace();
    const auto distances = computeReuseDistances(t);
    std::size_t first_touches = 0;
    for (double d : distances) {
        if (!isFiniteReuseDistance(d))
            ++first_touches;
    }
    EXPECT_EQ(first_touches, t.functions().size());
}

TEST_P(AnalysisProperties, ShardsSubsetOfExactSupport)
{
    // Every finite SHARDS distance, unscaled, must appear among the
    // distances of the sampled sub-trace — verified indirectly: scaled
    // distances divided by 1/R are non-negative and the infinite marker
    // count equals the sampled function count.
    const Trace t = randomTrace();
    const ShardsResult shards = shardsSample(t, 0.5, GetParam());
    std::size_t infinite = 0;
    for (double d : shards.scaled_distances) {
        if (!isFiniteReuseDistance(d))
            ++infinite;
        else
            EXPECT_GE(d, 0.0);
    }
    EXPECT_EQ(infinite, shards.sampled_functions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisProperties,
                         testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace faascache
