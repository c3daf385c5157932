#include "analysis/reuse_distance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/reuse_distance_naive.h"
#include "trace/azure_model.h"
#include "util/rng.h"

namespace faascache {
namespace {

Trace
traceFromSequence(const std::vector<FunctionId>& seq,
                  const std::vector<MemMb>& sizes)
{
    Trace t("seq");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        t.addFunction(makeFunction(static_cast<FunctionId>(i),
                                   "f" + std::to_string(i), sizes[i],
                                   fromMillis(10), fromMillis(10)));
    }
    TimeUs now = 0;
    for (FunctionId fn : seq)
        t.addInvocation(fn, now += kMillisecond);
    return t;
}

TEST(ReuseDistance, PaperExampleABCBCA)
{
    // Paper §5.1: in ABCBCA the reuse distance of (the second) A is
    // size(B) + size(C).
    const Trace t =
        traceFromSequence({0, 1, 2, 1, 2, 0}, {10.0, 20.0, 30.0});
    const auto d = computeReuseDistances(t);
    ASSERT_EQ(d.size(), 6u);
    EXPECT_EQ(d[0], kInfiniteReuseDistance);  // A first touch
    EXPECT_EQ(d[1], kInfiniteReuseDistance);  // B first touch
    EXPECT_EQ(d[2], kInfiniteReuseDistance);  // C first touch
    EXPECT_DOUBLE_EQ(d[3], 30.0);             // B: unique {C}
    EXPECT_DOUBLE_EQ(d[4], 20.0);             // C: unique {B}
    EXPECT_DOUBLE_EQ(d[5], 50.0);             // A: unique {B, C}
}

TEST(ReuseDistance, ConsecutiveSameFunctionIsZero)
{
    const Trace t = traceFromSequence({0, 0, 0}, {10.0});
    const auto d = computeReuseDistances(t);
    EXPECT_EQ(d[0], kInfiniteReuseDistance);
    EXPECT_DOUBLE_EQ(d[1], 0.0);
    EXPECT_DOUBLE_EQ(d[2], 0.0);
}

TEST(ReuseDistance, DuplicatesCountedOnce)
{
    // A B B B A: distance of second A is size(B), not 3 x size(B).
    const Trace t = traceFromSequence({0, 1, 1, 1, 0}, {10.0, 20.0});
    const auto d = computeReuseDistances(t);
    EXPECT_DOUBLE_EQ(d[4], 20.0);
}

TEST(ReuseDistance, EmptyTrace)
{
    Trace t("empty");
    EXPECT_TRUE(computeReuseDistances(t).empty());
}

TEST(ReuseDistance, NaiveMatchesPaperExample)
{
    const Trace t =
        traceFromSequence({0, 1, 2, 1, 2, 0}, {10.0, 20.0, 30.0});
    const auto fast = computeReuseDistances(t);
    const auto naive = computeReuseDistancesNaive(t);
    EXPECT_EQ(fast, naive);
}

TEST(ReuseDistance, FenwickMatchesNaiveOnRandomTraces)
{
    Rng rng(31);
    for (int round = 0; round < 10; ++round) {
        const std::size_t num_fns = 5 + rng.uniformInt(10);
        std::vector<MemMb> sizes;
        for (std::size_t i = 0; i < num_fns; ++i)
            sizes.push_back(std::round(rng.uniform(16, 512)));
        std::vector<FunctionId> seq;
        for (int i = 0; i < 400; ++i)
            seq.push_back(static_cast<FunctionId>(rng.uniformInt(num_fns)));
        const Trace t = traceFromSequence(seq, sizes);
        EXPECT_EQ(computeReuseDistances(t), computeReuseDistancesNaive(t));
    }
}

TEST(ReuseDistance, MatchesNaiveOnAzureSample)
{
    AzureModelConfig config;
    config.seed = 3;
    config.num_functions = 60;
    config.duration_us = 15 * kMinute;
    config.iat_median_sec = 15.0;
    const Trace t = generateAzureTrace(config);
    EXPECT_EQ(computeReuseDistances(t), computeReuseDistancesNaive(t));
}

TEST(ReuseDistance, ComputeOfStandaloneAccessList)
{
    const std::vector<FunctionId> accesses = {0, 1, 0};
    const std::vector<MemMb> sizes = {10.0, 25.0};
    const auto d = computeReuseDistancesOf(accesses, sizes);
    ASSERT_EQ(d.size(), 3u);
    EXPECT_DOUBLE_EQ(d[2], 25.0);
}

TEST(ReuseDistance, FirstTouchCountEqualsUniqueFunctions)
{
    AzureModelConfig config;
    config.seed = 9;
    config.num_functions = 50;
    config.duration_us = 10 * kMinute;
    config.iat_median_sec = 10.0;
    const Trace t = generateAzureTrace(config);
    const auto d = computeReuseDistances(t);
    std::size_t first_touches = 0;
    for (double v : d) {
        if (!isFiniteReuseDistance(v))
            ++first_touches;
    }
    EXPECT_EQ(first_touches, t.functions().size());
}

}  // namespace
}  // namespace faascache
