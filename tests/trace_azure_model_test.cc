#include "trace/azure_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep_runner.h"
#include "trace/generated_source.h"
#include "trace/invocation_source.h"

namespace faascache {
namespace {

AzureModelConfig
smallConfig()
{
    AzureModelConfig config;
    config.seed = 7;
    config.num_functions = 120;
    config.duration_us = 30 * kMinute;
    config.iat_median_sec = 30.0;
    return config;
}

TEST(AzureModel, Deterministic)
{
    const Trace a = generateAzureTrace(smallConfig());
    const Trace b = generateAzureTrace(smallConfig());
    ASSERT_EQ(a.invocations().size(), b.invocations().size());
    EXPECT_EQ(a.functions().size(), b.functions().size());
    for (std::size_t i = 0; i < a.invocations().size(); ++i)
        EXPECT_EQ(a.invocations()[i], b.invocations()[i]);
}

TEST(AzureModel, SeedChangesTrace)
{
    AzureModelConfig other = smallConfig();
    other.seed = 8;
    const Trace a = generateAzureTrace(smallConfig());
    const Trace b = generateAzureTrace(other);
    EXPECT_NE(a.invocations().size(), b.invocations().size());
}

TEST(AzureModel, TraceIsValidAndSorted)
{
    const Trace t = generateAzureTrace(smallConfig());
    EXPECT_TRUE(t.validate());
    EXPECT_TRUE(t.isSorted());
}

TEST(AzureModel, RespectsMemoryClamps)
{
    AzureModelConfig config = smallConfig();
    config.mem_min_mb = 64;
    config.mem_max_mb = 512;
    const Trace t = generateAzureTrace(config);
    for (const auto& fn : t.functions()) {
        EXPECT_GE(fn.mem_mb, 64.0);
        EXPECT_LE(fn.mem_mb, 512.0);
    }
}

TEST(AzureModel, InitRatioWithinClamp)
{
    AzureModelConfig config = smallConfig();
    const Trace t = generateAzureTrace(config);
    for (const auto& fn : t.functions()) {
        const double ratio = static_cast<double>(fn.initTime()) /
            static_cast<double>(fn.warm_us);
        // Microsecond truncation perturbs the ratio slightly.
        EXPECT_GE(ratio, config.init_ratio_min * 0.95);
        EXPECT_LE(ratio, config.init_ratio_max * 1.05);
    }
}

TEST(AzureModel, DropsSingleInvocationFunctions)
{
    const Trace t = generateAzureTrace(smallConfig());
    const auto counts = t.invocationCounts();
    for (std::size_t count : counts)
        EXPECT_GE(count, 2u);
}

TEST(AzureModel, KeepsSingletonsWhenConfigured)
{
    AzureModelConfig config = smallConfig();
    config.drop_single_invocation_functions = false;
    const Trace t = generateAzureTrace(config);
    EXPECT_EQ(t.functions().size(), config.num_functions);
}

TEST(AzureModel, MinuteBucketRule)
{
    // Multiple invocations of one function within a minute must be
    // evenly spaced; a single invocation lands at the bucket start.
    const Trace t = generateAzureTrace(smallConfig());
    // Group invocations per (function, minute).
    std::map<std::pair<FunctionId, TimeUs>, std::vector<TimeUs>> buckets;
    for (const auto& inv : t.invocations()) {
        buckets[{inv.function, inv.arrival_us / kMinute}].push_back(
            inv.arrival_us);
    }
    for (const auto& [key, times] : buckets) {
        const TimeUs start = key.second * kMinute;
        if (times.size() == 1) {
            EXPECT_EQ(times[0], start);
        } else {
            const TimeUs spacing = kMinute / static_cast<TimeUs>(times.size());
            for (std::size_t k = 0; k < times.size(); ++k)
                EXPECT_EQ(times[k], start + static_cast<TimeUs>(k) * spacing);
        }
    }
}

TEST(AzureModel, HeavyTailedRates)
{
    AzureModelConfig config = smallConfig();
    config.num_functions = 400;
    config.duration_us = kHour;
    const Trace t = generateAzureTrace(config);
    auto counts = t.invocationCounts();
    std::sort(counts.begin(), counts.end());
    // The busiest function dominates the median one by a large factor.
    EXPECT_GT(counts.back(),
              10 * std::max<std::size_t>(1, counts[counts.size() / 2]));
}

TEST(AzureModel, MaxRateCapsHeavyHitters)
{
    AzureModelConfig config = smallConfig();
    config.max_rate_per_sec = 0.5;
    config.diurnal = false;
    const Trace t = generateAzureTrace(config);
    const auto counts = t.invocationCounts();
    const double duration_sec = toSeconds(config.duration_us);
    for (std::size_t c : counts) {
        // Poisson noise allowance: 3 sigma above the capped mean.
        const double cap = 0.5 * duration_sec;
        EXPECT_LT(static_cast<double>(c), cap + 3 * std::sqrt(cap) + 1);
    }
}

TEST(AzureModel, UtilizationCapKeepsHeavyHittersShort)
{
    AzureModelConfig config = smallConfig();
    config.max_rate_per_sec = 2.0;
    config.warm_median_ms = 5'000.0;  // try to make everything slow
    config.max_utilization = 0.5;
    const Trace t = generateAzureTrace(config);
    const auto counts = t.invocationCounts();
    const double duration_sec = toSeconds(config.duration_us);
    for (const auto& fn : t.functions()) {
        // Approximate the function's mean rate from its count.
        const double rate =
            static_cast<double>(counts[fn.id]) / duration_sec;
        if (rate < 0.05)
            continue;  // too few samples to bound reliably
        const double utilization = rate * toSeconds(fn.warm_us);
        // Allow Poisson noise: observed rate fluctuates around the
        // model rate that the cap was computed from.
        EXPECT_LT(utilization, 1.0) << fn.name;
    }
}

TEST(DiurnalMultiplier, MeanIsOneAndPeakMatches)
{
    const double peak = 2.0;
    const TimeUs period = 24 * kHour;
    double sum = 0.0;
    double max_seen = 0.0;
    const int samples = 2400;
    for (int i = 0; i < samples; ++i) {
        const TimeUs t = period * i / samples;
        const double m = diurnalMultiplier(t, peak, period);
        EXPECT_GE(m, 0.0);
        sum += m;
        max_seen = std::max(max_seen, m);
    }
    EXPECT_NEAR(sum / samples, 1.0, 0.01);
    EXPECT_NEAR(max_seen, peak, 0.01);
}

TEST(DiurnalMultiplier, DisabledWhenFlat)
{
    EXPECT_DOUBLE_EQ(diurnalMultiplier(12345, 1.0, kHour), 1.0);
}

TEST(AzureModel, DiurnalModulatesArrivals)
{
    AzureModelConfig config = smallConfig();
    config.diurnal = true;
    config.diurnal_peak_to_mean = 2.0;
    config.diurnal_period_us = config.duration_us;  // one full cycle
    const Trace t = generateAzureTrace(config);
    // Rates near the cycle middle (peak) exceed rates near the edges.
    std::size_t edge = 0, middle = 0;
    const TimeUs quarter = config.duration_us / 4;
    for (const auto& inv : t.invocations()) {
        if (inv.arrival_us < quarter)
            ++edge;
        else if (inv.arrival_us >= quarter && inv.arrival_us < 3 * quarter)
            ++middle;
    }
    EXPECT_GT(middle, 2 * edge);
}

/** Diurnal, three days, low per-function rates as in fig_shard_scaling
 *  (1.7 % of the minute cells draw a non-zero count), functions
 *  invoked once dropped. */
AzureModelConfig
sparseDiurnalConfig()
{
    AzureModelConfig config;
    config.seed = 2026;
    config.num_functions = 1000;
    config.duration_us = 3 * 24 * kHour;
    config.iat_median_sec = 7200.0;
    config.iat_sigma = 1.2;
    config.max_rate_per_sec = 0.5;
    config.diurnal = true;
    config.diurnal_peak_to_mean = 2.5;
    config.drop_single_invocation_functions = true;
    return config;
}

/** Flat, high per-function rates: means up to 240 a minute, so cells
 *  take Knuth's loop and the normal approximation alike. */
AzureModelConfig
denseFlatConfig()
{
    AzureModelConfig config;
    config.seed = 99;
    config.num_functions = 60;
    config.duration_us = 20 * kMinute;
    config.iat_median_sec = 2.0;
    return config;
}

// Fingerprints of the generated catalog and stream, pinned (recorded
// with Rng::poisson as the plain Knuth loop and the cosine evaluated
// per cell).
// streaming_differential_test compares the streamed and materialized
// generators with each other, so a change that shifts both alike passes
// it; these digests catch that.
constexpr std::uint64_t kSparseDiurnalDigest = 0x4829cbf0e68d61f9ULL;
constexpr std::uint64_t kDenseFlatDigest = 0x02266ea65277460fULL;

TEST(AzureModel, SparseDiurnalBytesArePinned)
{
    const AzureModelConfig config = sparseDiurnalConfig();
    EXPECT_EQ(traceFingerprint(generateAzureTrace(config)),
              kSparseDiurnalDigest);
    EXPECT_EQ(sourceFingerprint(*makeAzureSource(config)),
              kSparseDiurnalDigest);
}

TEST(AzureModel, DenseFlatBytesArePinned)
{
    const AzureModelConfig config = denseFlatConfig();
    EXPECT_EQ(traceFingerprint(generateAzureTrace(config)),
              kDenseFlatDigest);
    EXPECT_EQ(sourceFingerprint(*makeAzureSource(config)),
              kDenseFlatDigest);
}

}  // namespace
}  // namespace faascache
