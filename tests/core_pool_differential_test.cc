// Differential test for the ContainerPool storage backends: the slab
// arena (the default) must be *observably identical* to the original
// hash-map pool, which is kept as a reference oracle (PoolBackend::
// ReferenceMap). Every keep-alive policy is replayed over the paper's
// three sampling recipes (REPRESENTATIVE / RARE / RANDOM) through both
// backends and the full SimResult — counters, per-function outcomes,
// and the memory timeline — must compare bit-identical. Any divergence
// (container-id assignment, warm-container choice, eviction-candidate
// enumeration order) shows up here as a hard mismatch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "platform/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/samplers.h"

namespace faascache {
namespace {

/** Miniature bench-style population (fixed derived seeds, small scale
 *  so the full policy x trace x backend matrix stays fast). */
const Trace&
population()
{
    static const Trace kPopulation = [] {
        AzureModelConfig config;
        config.seed = deriveCellSeed(2021, 1);
        config.num_functions = 150;
        config.duration_us = 30 * kMinute;
        config.iat_median_sec = 30.0;
        config.max_rate_per_sec = 2.0;
        config.mem_median_mb = 64.0;
        config.mem_sigma = 0.7;
        config.mem_max_mb = 512.0;
        config.name = "pool-differential-population";
        return generateAzureTrace(config);
    }();
    return kPopulation;
}

/** The three Table-2 sampling recipes, at miniature scale. */
const std::vector<Trace>&
sampledTraces()
{
    static const std::vector<Trace> kTraces = [] {
        std::vector<Trace> traces;
        traces.push_back(sampleRepresentative(population(), 60,
                                              deriveCellSeed(2021, 2)));
        traces.push_back(sampleRare(population(), 80,
                                    deriveCellSeed(2021, 3)));
        traces.push_back(sampleRandom(population(), 40,
                                      deriveCellSeed(2021, 4)));
        return traces;
    }();
    return kTraces;
}

SimResult
runWith(const Trace& trace, PolicyKind kind, PoolBackend backend,
        MemMb memory_mb)
{
    SimulatorConfig config;
    config.memory_mb = memory_mb;
    config.pool_backend = backend;
    // Exercise the sampling, prewarm, and background-reclaim paths too:
    // they enumerate the pool in ways that could expose backend order.
    config.memory_sample_interval_us = kMinute;
    config.enable_prewarm = true;
    config.background_reclaim_interval_us = 2 * kMinute;
    config.background_free_target_mb = memory_mb / 8;
    return simulateTrace(trace, makePolicy(kind), config);
}

TEST(PoolDifferential, EveryPolicyEveryTraceBitIdentical)
{
    // Small enough memory that evictions actually happen, large enough
    // that warm starts dominate (both paths exercised).
    const MemMb memory_mb = 1024.0;
    for (const Trace& trace : sampledTraces()) {
        for (PolicyKind kind : allPolicyKinds()) {
            const SimResult slab =
                runWith(trace, kind, PoolBackend::Slab, memory_mb);
            const SimResult reference =
                runWith(trace, kind, PoolBackend::ReferenceMap, memory_mb);
            EXPECT_TRUE(slab == reference)
                << "backend divergence: trace=" << trace.name()
                << " policy=" << policyKindName(kind)
                << " slab(warm=" << slab.warm_starts
                << ",cold=" << slab.cold_starts
                << ",evict=" << slab.evictions
                << ",expire=" << slab.expirations
                << ",prewarm=" << slab.prewarms
                << ") reference(warm=" << reference.warm_starts
                << ",cold=" << reference.cold_starts
                << ",evict=" << reference.evictions
                << ",expire=" << reference.expirations
                << ",prewarm=" << reference.prewarms << ")";
        }
    }
}

TEST(PoolDifferential, MemoryPressureSweepBitIdentical)
{
    // Tight memory forces constant eviction churn — the regime where
    // victim-selection enumeration order matters most.
    const Trace& trace = sampledTraces()[0];
    for (MemMb memory_mb : {256.0, 512.0, 2048.0}) {
        for (PolicyKind kind :
             {PolicyKind::GreedyDual, PolicyKind::Hist, PolicyKind::Lru}) {
            const SimResult slab =
                runWith(trace, kind, PoolBackend::Slab, memory_mb);
            const SimResult reference =
                runWith(trace, kind, PoolBackend::ReferenceMap, memory_mb);
            EXPECT_TRUE(slab == reference)
                << "backend divergence at " << memory_mb << " MB, policy "
                << policyKindName(kind);
        }
    }
}

TEST(PoolDifferential, PlatformServerBitIdentical)
{
    // The platform server drives the pool through the additional
    // release-finished / crash-flush paths; compare the full
    // PlatformResult across backends for the heavier policies.
    const Trace& trace = sampledTraces()[0];
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Hist,
                            PolicyKind::Ttl}) {
        ServerConfig config;
        config.cores = 2;
        config.memory_mb = 768.0;
        config.pool_backend = PoolBackend::Slab;
        const PlatformResult slab = runPlatform(trace, kind, config);
        config.pool_backend = PoolBackend::ReferenceMap;
        const PlatformResult reference = runPlatform(trace, kind, config);

        EXPECT_EQ(slab.warm_starts, reference.warm_starts);
        EXPECT_EQ(slab.cold_starts, reference.cold_starts);
        EXPECT_EQ(slab.dropped_queue_full, reference.dropped_queue_full);
        EXPECT_EQ(slab.dropped_timeout, reference.dropped_timeout);
        EXPECT_EQ(slab.dropped_oversize, reference.dropped_oversize);
        EXPECT_EQ(slab.evictions, reference.evictions);
        EXPECT_EQ(slab.expirations, reference.expirations);
        EXPECT_EQ(slab.prewarms, reference.prewarms);
        ASSERT_EQ(slab.catalog_size, reference.catalog_size);
        for (FunctionId f = 0; f < slab.catalog_size; ++f)
            EXPECT_EQ(slab.outcomeOf(f), reference.outcomeOf(f));
        ASSERT_EQ(slab.latencies_sec.size(),
                  reference.latencies_sec.size());
        for (std::size_t i = 0; i < slab.latencies_sec.size(); ++i)
            EXPECT_EQ(slab.latencies_sec[i], reference.latencies_sec[i]);
    }
}

}  // namespace
}  // namespace faascache
