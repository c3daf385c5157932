#include "core/greedy_dual.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/container_pool.h"
#include "platform/experiment_checkpoint.h"
#include "platform/server.h"
#include "sim/simulator.h"
#include "sim/sweep_checkpoint.h"
#include "trace/azure_model.h"
#include "util/rng.h"

namespace faascache {
namespace {

// Helper driving a policy + pool pair like the simulator does.
struct Harness
{
    ContainerPool pool;
    GreedyDualPolicy policy;

    explicit Harness(MemMb capacity, GreedyDualConfig config = {})
        : pool(capacity), policy(config)
    {
    }

    Container&
    invokeCold(const FunctionSpec& spec, TimeUs now)
    {
        policy.onInvocationArrival(spec, now);
        Container& c = pool.add(spec, now);
        c.startInvocation(now, now + spec.cold_us);
        policy.onColdStart(c, spec, now);
        c.finishInvocation();
        return c;
    }

    void
    invokeWarm(Container& c, const FunctionSpec& spec, TimeUs now)
    {
        policy.onInvocationArrival(spec, now);
        c.startInvocation(now, now + spec.warm_us);
        policy.onWarmStart(c, spec, now);
        c.finishInvocation();
    }
};

// (memory MB, warm ms, init ms)
FunctionSpec
fn(FunctionId id, MemMb mem, double warm_ms, double init_ms)
{
    return makeFunction(id, "fn" + std::to_string(id), mem,
                        fromMillis(warm_ms), fromMillis(init_ms));
}

TEST(GreedyDual, PriorityFormula)
{
    Harness h(10'000);
    // cost = 2 s init, size = 100 MB, freq = 1, clock = 0.
    const FunctionSpec f = fn(0, 100, 500, 2000);
    Container& c = h.invokeCold(f, 0);
    EXPECT_DOUBLE_EQ(c.priority(), 0.0 + 1.0 * 2.0 / 100.0);
    EXPECT_DOUBLE_EQ(h.policy.priorityOf(f), 1.0 * 2.0 / 100.0);
}

TEST(GreedyDual, FrequencyScalesPriority)
{
    Harness h(10'000);
    const FunctionSpec f = fn(0, 100, 500, 2000);
    Container& c = h.invokeCold(f, 0);
    h.invokeWarm(c, f, kSecond);
    h.invokeWarm(c, f, 2 * kSecond);
    // freq = 3 now.
    EXPECT_DOUBLE_EQ(c.priority(), 3.0 * 2.0 / 100.0);
}

TEST(GreedyDual, EvictsLowestValueFirst)
{
    Harness h(10'000);
    // Low value: huge and cheap to rebuild. High value: small, costly.
    const FunctionSpec big_cheap = fn(0, 1000, 500, 100);
    const FunctionSpec small_costly = fn(1, 50, 500, 4000);
    h.invokeCold(big_cheap, 0);
    h.invokeCold(small_costly, kSecond);

    const auto victims = h.policy.selectVictims(h.pool, 10, 2 * kSecond);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(h.pool.get(victims[0])->function(), 0u);
}

TEST(GreedyDual, ClockAdvancesToEvictedPriority)
{
    Harness h(10'000);
    const FunctionSpec f0 = fn(0, 100, 500, 1000);  // value 0.01
    const FunctionSpec f1 = fn(1, 100, 500, 5000);  // value 0.05
    h.invokeCold(f0, 0);
    h.invokeCold(f1, 0);
    EXPECT_DOUBLE_EQ(h.policy.clock(), 0.0);

    const auto victims = h.policy.selectVictims(h.pool, 50, kSecond);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_DOUBLE_EQ(h.policy.clock(), 0.01);
}

TEST(GreedyDual, ClockTakesMaxOverEvictedSet)
{
    Harness h(10'000);
    const FunctionSpec f0 = fn(0, 100, 500, 1000);  // value 0.01
    const FunctionSpec f1 = fn(1, 100, 500, 5000);  // value 0.05
    const FunctionSpec f2 = fn(2, 100, 500, 9000);  // value 0.09
    h.invokeCold(f0, 0);
    h.invokeCold(f1, 0);
    h.invokeCold(f2, 0);

    // Force evicting two containers: clock = max of the two priorities.
    const auto victims = h.policy.selectVictims(h.pool, 150, kSecond);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_DOUBLE_EQ(h.policy.clock(), 0.05);
}

TEST(GreedyDual, AgingLetsNewFunctionsSurvive)
{
    // After evictions raise the clock, a fresh low-value function gets a
    // higher priority than stale high-value ones (recency matters).
    Harness h(10'000);
    const FunctionSpec stale = fn(0, 100, 500, 3000);  // value 0.03
    Container& stale_c = h.invokeCold(stale, 0);

    // Evict an even lower-value function so the clock rises above 0.
    const FunctionSpec filler = fn(1, 100, 500, 2000);  // value 0.02
    h.invokeCold(filler, 0);
    auto victims = h.policy.selectVictims(h.pool, 50, kSecond);
    // LRU tie-break inside equal priorities doesn't matter here: the
    // filler (0.02) goes first.
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(h.pool.get(victims[0])->function(), 1u);
    h.policy.onEviction(*h.pool.get(victims[0]), true, kSecond);
    h.pool.remove(victims[0]);
    EXPECT_DOUBLE_EQ(h.policy.clock(), 0.02);

    // A new cheap function used now outranks the stale valuable one
    // once its clock component counts: 0.02 + 0.015 > 0.00 + 0.03.
    const FunctionSpec fresh = fn(2, 100, 500, 1500);
    Container& fresh_c = h.invokeCold(fresh, 2 * kSecond);
    EXPECT_GT(fresh_c.priority(), stale_c.policyClock() + 0.03 - 1e-12);
}

TEST(GreedyDual, TieBreaksTowardOlderContainerOfSameFunction)
{
    Harness h(10'000);
    const FunctionSpec f = fn(0, 100, 500, 1000);
    Container& first = h.invokeCold(f, 0);
    // Concurrent second container (cold because first was busy).
    h.policy.onInvocationArrival(f, 10);
    Container& second = h.pool.add(f, 10);
    second.startInvocation(10, 10 + f.cold_us);
    h.policy.onColdStart(second, f, 10);
    second.finishInvocation();

    const auto victims = h.policy.selectVictims(h.pool, 50, kSecond);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], first.id());
}

TEST(GreedyDual, FrequencyResetOnLastEviction)
{
    Harness h(10'000);
    const FunctionSpec f = fn(0, 100, 500, 1000);
    Container& c = h.invokeCold(f, 0);
    h.invokeWarm(c, f, kSecond);
    EXPECT_EQ(h.policy.stats().of(0).frequency, 2);

    h.policy.onEviction(c, /*last_of_function=*/true, 2 * kSecond);
    EXPECT_EQ(h.policy.stats().of(0).frequency, 0);
}

TEST(GreedyDual, NoResetWhenOtherContainersRemain)
{
    Harness h(10'000);
    const FunctionSpec f = fn(0, 100, 500, 1000);
    Container& c = h.invokeCold(f, 0);
    h.policy.onEviction(c, /*last_of_function=*/false, kSecond);
    EXPECT_EQ(h.policy.stats().of(0).frequency, 1);
}

TEST(GreedyDual, BatchEvictionFreesToThreshold)
{
    GreedyDualConfig config;
    config.batch_free_mb = 500;
    Harness h(1000, config);
    const FunctionSpec f = fn(0, 100, 500, 1000);
    for (int i = 0; i < 10; ++i)
        h.invokeCold(fn(static_cast<FunctionId>(i), 100, 500, 1000), 0);
    ASSERT_DOUBLE_EQ(h.pool.freeMb(), 0.0);

    // Needs only 10 MB but the batch threshold demands 500 MB free.
    const auto victims = h.policy.selectVictims(h.pool, 10, kSecond);
    MemMb freed = 0;
    for (ContainerId id : victims)
        freed += h.pool.get(id)->memMb();
    EXPECT_GE(freed, 500.0);
    (void)f;
}

TEST(GreedyDual, VictimsAreBestEffortWhenInsufficient)
{
    Harness h(1000);
    h.invokeCold(fn(0, 200, 500, 1000), 0);
    Container& busy = h.pool.add(fn(1, 800, 500, 1000), 0);
    busy.startInvocation(0, kMinute);  // busy: not evictable

    const auto victims = h.policy.selectVictims(h.pool, 500, kSecond);
    ASSERT_EQ(victims.size(), 1u);  // only the idle 200 MB container
    EXPECT_EQ(h.pool.get(victims[0])->function(), 0u);
}

TEST(GreedyDual, SizeOnlyVariantIgnoresFrequency)
{
    GreedyDualConfig config;
    config.use_frequency = false;
    Harness h(10'000, config);
    const FunctionSpec f = fn(0, 100, 500, 2000);
    Container& c = h.invokeCold(f, 0);
    h.invokeWarm(c, f, kSecond);
    h.invokeWarm(c, f, 2 * kSecond);
    EXPECT_DOUBLE_EQ(c.priority(), 2.0 / 100.0);
}

TEST(GreedyDual, NameIsGD)
{
    EXPECT_EQ(GreedyDualPolicy().name(), "GD");
}

// ---------------------------------------------------------------------------
// Engine conformance: the lazy-deletion heap fast path must be
// observationally identical to the sort-based reference oracle — same
// victim sequences, same counts — on every workload and every ablation
// flag combination.

/** The eight use_{frequency,cost,size} combinations. */
std::vector<GreedyDualConfig>
ablationConfigs(MemMb batch_free_mb)
{
    std::vector<GreedyDualConfig> configs;
    for (int mask = 0; mask < 8; ++mask) {
        GreedyDualConfig config;
        config.use_frequency = (mask & 1) != 0;
        config.use_cost = (mask & 2) != 0;
        config.use_size = (mask & 4) != 0;
        config.batch_free_mb = batch_free_mb;
        configs.push_back(config);
    }
    return configs;
}

/**
 * Drives a heap-engine and a sort-engine policy through an identical
 * randomized invocation stream (one pool each, mirrored operations, so
 * container ids line up) and asserts every selectVictims call returns
 * the same victim sequence.
 */
void
runLockstepTrial(GreedyDualConfig config, std::uint64_t seed)
{
    GreedyDualConfig heap_config = config;
    heap_config.eviction_engine = GdEvictionEngine::LazyHeap;
    GreedyDualConfig sort_config = config;
    sort_config.eviction_engine = GdEvictionEngine::SortReference;

    const MemMb capacity = 1500;
    Harness heap(capacity, heap_config);
    Harness sort(capacity, sort_config);

    Rng rng(seed);
    std::vector<FunctionSpec> functions;
    for (FunctionId id = 0; id < 12; ++id) {
        functions.push_back(fn(id, 50.0 + 25.0 * (id % 7),
                               200.0 + 100.0 * (id % 3),
                               500.0 + 400.0 * (id % 5)));
    }

    TimeUs now = 0;
    for (int step = 0; step < 600; ++step) {
        now += static_cast<TimeUs>(rng.uniformInt(2 * kSecond)) + 1;
        const FunctionSpec& f = functions[rng.uniformInt(functions.size())];

        // Mirror of the simulator's serve path, applied to both pairs.
        Container* heap_warm = heap.pool.findIdleWarm(f.id);
        Container* sort_warm = sort.pool.findIdleWarm(f.id);
        ASSERT_EQ(heap_warm == nullptr, sort_warm == nullptr);
        if (heap_warm != nullptr) {
            heap.invokeWarm(*heap_warm, f, now);
            sort.invokeWarm(*sort_warm, f, now);
            continue;
        }
        if (!heap.pool.fits(f.mem_mb)) {
            const MemMb needed = f.mem_mb - heap.pool.freeMb();
            const auto heap_victims =
                heap.policy.selectVictims(heap.pool, needed, now);
            const auto sort_victims =
                sort.policy.selectVictims(sort.pool, needed, now);
            ASSERT_EQ(heap_victims, sort_victims)
                << "victim sequences diverged at step " << step;

            MemMb freed = 0;
            for (ContainerId id : heap_victims)
                freed += heap.pool.get(id)->memMb();
            if (freed < needed)
                continue;  // simulator would drop the request
            for (ContainerId id : heap_victims) {
                const FunctionId victim_fn = heap.pool.get(id)->function();
                heap.policy.onEviction(*heap.pool.get(id),
                                       heap.pool.countOf(victim_fn) == 1,
                                       now);
                heap.pool.remove(id);
                sort.policy.onEviction(*sort.pool.get(id),
                                       sort.pool.countOf(victim_fn) == 1,
                                       now);
                sort.pool.remove(id);
            }
        }
        heap.invokeCold(f, now);
        sort.invokeCold(f, now);
        ASSERT_EQ(heap.pool.size(), sort.pool.size());
    }
}

TEST(GreedyDualEngines, PropertyVictimSequencesMatchAcrossAblations)
{
    for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
        for (const MemMb batch : {0.0, 400.0}) {
            for (const GreedyDualConfig& config : ablationConfigs(batch)) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " batch=" + std::to_string(batch) +
                             " freq=" + std::to_string(config.use_frequency) +
                             " cost=" + std::to_string(config.use_cost) +
                             " size=" + std::to_string(config.use_size));
                runLockstepTrial(config, seed);
            }
        }
    }
}

TEST(GreedyDualEngines, FullSimulationMatchesOracleOnRandomizedTraces)
{
    // End-to-end: identical cold/warm/drop counts (and every other
    // SimResult field) on randomized seeded traces, heap vs oracle,
    // across all ablation combinations and batching settings.
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
        AzureModelConfig trace_config;
        trace_config.seed = seed;
        trace_config.num_functions = 80;
        trace_config.duration_us = 15 * kMinute;
        trace_config.iat_median_sec = 20.0;
        trace_config.max_rate_per_sec = 1.0;
        trace_config.name = "gd-engine-differential";
        const Trace trace = generateAzureTrace(trace_config);

        for (const MemMb batch : {0.0, 512.0}) {
            for (GreedyDualConfig config : ablationConfigs(batch)) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " batch=" + std::to_string(batch) +
                             " freq=" + std::to_string(config.use_frequency) +
                             " cost=" + std::to_string(config.use_cost) +
                             " size=" + std::to_string(config.use_size));
                SimulatorConfig sim;
                sim.memory_mb = 800.0;  // tight: forces evictions + drops
                sim.memory_sample_interval_us = kMinute;

                config.eviction_engine = GdEvictionEngine::LazyHeap;
                const SimResult heap_result = simulateTrace(
                    trace, std::make_unique<GreedyDualPolicy>(config), sim);
                config.eviction_engine = GdEvictionEngine::SortReference;
                const SimResult sort_result = simulateTrace(
                    trace, std::make_unique<GreedyDualPolicy>(config), sim);

                EXPECT_EQ(heap_result.cold_starts, sort_result.cold_starts);
                EXPECT_EQ(heap_result.warm_starts, sort_result.warm_starts);
                EXPECT_EQ(heap_result.dropped, sort_result.dropped);
                EXPECT_EQ(heap_result.evictions, sort_result.evictions);
                EXPECT_TRUE(heap_result == sort_result);
            }
        }
    }
}

TEST(GreedyDualEngines, HeapStaysCompactedUnderChurn)
{
    // A use only retires the container's entry and its release only
    // logs the slot, so churn without searches must not grow the heap;
    // a search pushes each logged container under a fresh entry, and
    // compaction drops the superseded ones. heapSize() (the priority
    // heap plus the proposals held aside) must stay within a constant
    // factor of the live container count throughout.
    Harness h(100'000);
    const FunctionSpec f = fn(0, 100, 500, 1000);
    Container& c = h.invokeCold(f, 0);
    for (int i = 1; i <= 5000; ++i) {
        h.invokeWarm(c, f, i * kSecond);
        ASSERT_LE(h.policy.heapSize(), 4 * h.pool.size() + 64);
    }
    // The bound holds with many live containers too, and across an
    // eviction round that pops.
    for (int i = 0; i < 70; ++i)
        h.invokeCold(fn(static_cast<FunctionId>(i + 1), 100, 500, 1000),
                     6000 * kSecond);
    EXPECT_LE(h.policy.heapSize(), 4 * h.pool.size() + 64);
    (void)h.policy.selectVictims(h.pool, 200, 7000 * kSecond);
    EXPECT_LE(h.policy.heapSize(), 4 * h.pool.size() + 64);
}

// ---------------------------------------------------------------------------
// Admission of released containers. The heap engine ranks a container
// only once it has gone idle: a use retires its entry, the pool's
// release log records it when it goes idle again, and the next search
// drains the log into the heap. Proposed victims the driver declines
// are held aside with their exact keys and return at the next search.
// These cases drive the release timing where it is tightest — searches
// at an instant earlier than the last release, searches before
// same-instant releases are delivered, long busy containers next to
// short idle ones, and searches that cannot free enough — and require
// payloads equal to the oracle's byte for byte.

std::string
describe(const GreedyDualConfig& config)
{
    return "batch=" + std::to_string(config.batch_free_mb) +
        " freq=" + std::to_string(config.use_frequency) +
        " cost=" + std::to_string(config.use_cost) +
        " size=" + std::to_string(config.use_size);
}

std::unique_ptr<GreedyDualPolicy>
gd(GreedyDualConfig config, GdEvictionEngine engine)
{
    config.eviction_engine = engine;
    return std::make_unique<GreedyDualPolicy>(config);
}

/** Canonical Simulator payload of `trace` under one GD engine. */
std::string
simPayload(const Trace& trace, const GreedyDualConfig& config,
           GdEvictionEngine engine, const SimulatorConfig& sim,
           SimResult* result = nullptr)
{
    const SimResult r = simulateTrace(trace, gd(config, engine), sim);
    if (result != nullptr)
        *result = r;
    return encodeCheckpointPayload("gd", r);
}

/** Canonical Server payload of `trace` under one GD engine. */
std::string
serverPayload(const Trace& trace, const GreedyDualConfig& config,
              GdEvictionEngine engine, const ServerConfig& server_config,
              PlatformResult* result = nullptr)
{
    Server server(gd(config, engine), server_config);
    const PlatformResult r = server.run(trace);
    if (result != nullptr)
        *result = r;
    return encodePlatformCheckpointPayload("gd", r);
}

/**
 * Random functions and arrivals; `long_share` of the functions run for
 * minutes and are cheap to restart (low GD priority), the rest run for
 * well under a second and are expensive to restart. Times land on whole
 * milliseconds, or whole seconds with `whole_seconds`, so many
 * invocations finish at the same instant.
 */
Trace
mixedTrace(std::uint64_t seed, double long_share, double mean_gap_sec,
           TimeUs duration, bool whole_seconds)
{
    Rng rng(seed);
    Trace trace("gd-admission");
    const int num_functions = 40;
    for (FunctionId id = 0; id < num_functions; ++id) {
        const bool is_long = rng.uniform() < long_share;
        const double warm = is_long ? 60.0 + 240.0 * rng.uniform()
                                    : 0.05 + 0.45 * rng.uniform();
        const double init = is_long ? 0.2 : 1.0 + 3.0 * rng.uniform();
        const MemMb mem = is_long ? 256.0 : 64.0 + 64.0 * (id % 3);
        const double unit_ms = whole_seconds ? 1000.0 : 1.0;
        const auto round_ms = [unit_ms](double sec) {
            return std::max(unit_ms,
                            unit_ms * std::round(sec * 1000.0 / unit_ms));
        };
        trace.addFunction(fn(id, mem, round_ms(warm), round_ms(init)));
    }
    double t = 0.0;
    while (true) {
        t += rng.exponential(mean_gap_sec);
        TimeUs at = fromSeconds(t);
        if (whole_seconds)
            at = (at / kSecond) * kSecond;
        if (at >= duration)
            break;
        trace.addInvocation(
            static_cast<FunctionId>(rng.uniformInt(num_functions)), at);
    }
    return trace;
}

TEST(GdAdmission, BackgroundReclaimSearchesBeforeLaterReleases)
{
    // The reclaim interval exceeds the arrival gaps, so advanceTo(t)
    // releases containers finishing in (when, t] and then searches at
    // `when`: those containers are idle although busyUntil > when.
    const Trace trace = mixedTrace(5, 0.3, 2.0, kHour, false);
    SimulatorConfig sim;
    sim.memory_mb = 1500;
    sim.memory_sample_interval_us = kMinute;
    sim.background_reclaim_interval_us = 7 * kSecond;
    sim.background_free_target_mb = 400;
    for (const MemMb batch : {0.0, 300.0}) {
        for (const GreedyDualConfig& config : ablationConfigs(batch)) {
            SCOPED_TRACE(describe(config));
            SimResult heap;
            const std::string heap_payload = simPayload(
                trace, config, GdEvictionEngine::LazyHeap, sim, &heap);
            EXPECT_EQ(heap_payload,
                      simPayload(trace, config,
                                 GdEvictionEngine::SortReference, sim));
            EXPECT_GT(heap.background_reclaims, 0);
        }
    }
}

TEST(GdAdmission, ServerColdStartBeforeSameInstantFinishes)
{
    // Two cores, room for two containers. At t=20 s an arrival for f2
    // queues behind A (f0) and B (f1), both due at 20 s. B's Finish was
    // scheduled first, so it is delivered first and its drain cold-
    // starts f2 while A — lower id, same busyUntil — is still busy and
    // not yet in the release log: the search must evict B, although A
    // ranks lower. Waiting for A would defer the eviction to A's
    // Finish, evict A instead, and turn f1's last call warm.
    Trace trace("same-instant");
    trace.addFunction(fn(0, 100, 5000, 100));
    trace.addFunction(fn(1, 100, 12000, 1000));
    trace.addFunction(fn(2, 100, 1000, 1000));
    trace.addInvocation(0, 0);              // A: cold, busy until 5.1 s
    trace.addInvocation(1, 7 * kSecond);    // B: cold, busy until 20 s
    trace.addInvocation(0, 15 * kSecond);   // A: warm, busy until 20 s
    trace.addInvocation(2, 20 * kSecond);   // queued; cold after B
    trace.addInvocation(1, 30 * kSecond);   // B is gone: cold
    ServerConfig server;
    server.cores = 2;
    server.memory_mb = 200;
    PlatformResult heap;
    const std::string heap_payload = serverPayload(
        trace, {}, GdEvictionEngine::LazyHeap, server, &heap);
    EXPECT_EQ(heap_payload,
              serverPayload(trace, {}, GdEvictionEngine::SortReference,
                            server));
    EXPECT_EQ(heap.cold_starts, 4);
    EXPECT_EQ(heap.evictions, 2);
    EXPECT_EQ(heap.dropped(), 0);
}

TEST(GdAdmission, ServerWholeSecondTiesMatchOracle)
{
    // Whole-second arrivals and run times: arrivals, Finishes and the
    // cold starts their drains trigger share instants constantly.
    const Trace trace = mixedTrace(9, 0.25, 1.0, 30 * kMinute, true);
    ServerConfig server;
    server.cores = 6;
    server.memory_mb = 1200;
    for (const MemMb batch : {0.0, 300.0}) {
        for (const GreedyDualConfig& config : ablationConfigs(batch)) {
            SCOPED_TRACE(describe(config));
            PlatformResult heap;
            const std::string heap_payload = serverPayload(
                trace, config, GdEvictionEngine::LazyHeap, server, &heap);
            EXPECT_EQ(heap_payload,
                      serverPayload(trace, config,
                                    GdEvictionEngine::SortReference,
                                    server));
            EXPECT_GT(heap.evictions, 0);
        }
    }
}

TEST(GdAdmission, LongBusyLowPriorityNextToShortIdleMatchesOracle)
{
    // The shape of a pool far below the working set: minutes-long,
    // cheap-to-restart containers stay busy, out of the heap, while
    // short, expensive ones churn through idle and the release log.
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
        const Trace trace = mixedTrace(seed, 0.4, 0.5, 40 * kMinute, false);
        SimulatorConfig sim;
        sim.memory_mb = 1200;
        sim.memory_sample_interval_us = kMinute;
        for (const MemMb batch : {0.0, 300.0}) {
            for (const GreedyDualConfig& config : ablationConfigs(batch)) {
                SCOPED_TRACE("seed=" + std::to_string(seed) + " " +
                             describe(config));
                SimResult heap;
                const std::string heap_payload = simPayload(
                    trace, config, GdEvictionEngine::LazyHeap, sim, &heap);
                EXPECT_EQ(heap_payload,
                          simPayload(trace, config,
                                     GdEvictionEngine::SortReference, sim));
                EXPECT_GT(heap.evictions, 0);
                EXPECT_GT(heap.dropped, 0);
            }
        }
    }
}

TEST(GdAdmission, InfeasibleSearchReturnsEveryIdleContainerInOrder)
{
    // Busy containers due after `now` lie among idle ones; a search
    // that cannot free enough must still propose every idle container,
    // in the oracle's order, because Simulator::resize and background
    // reclaim evict a prefix of it.
    for (const GreedyDualConfig& config : ablationConfigs(0.0)) {
        SCOPED_TRACE(describe(config));
        ContainerPool heap_pool(100'000);
        ContainerPool sort_pool(100'000);
        auto heap = gd(config, GdEvictionEngine::LazyHeap);
        auto sort = gd(config, GdEvictionEngine::SortReference);
        Rng rng(17);
        const TimeUs now = 1000 * kSecond;
        for (FunctionId id = 0; id < 60; ++id) {
            const FunctionSpec f = fn(id, 64.0 + 32.0 * (id % 5), 1000,
                                      500.0 + 250.0 * (id % 7));
            const auto start =
                static_cast<TimeUs>(rng.uniformInt(900)) * kSecond;
            // A third run past `now`; the rest finished by then.
            const TimeUs finish = id % 3 == 0
                ? now + static_cast<TimeUs>(1 + rng.uniformInt(100)) * kSecond
                : start + static_cast<TimeUs>(rng.uniformInt(100)) * kSecond;
            for (auto [pool, policy] :
                 {std::pair{&heap_pool, heap.get()},
                  std::pair{&sort_pool, sort.get()}}) {
                policy->onInvocationArrival(f, start);
                Container& c = pool->add(f, start);
                c.startInvocation(start, finish);
                policy->onColdStart(c, f, start);
            }
        }
        (void)heap_pool.releaseFinished(now);
        (void)sort_pool.releaseFinished(now);
        const double clock_before = heap->clock();

        const auto victims = heap->selectVictims(heap_pool, 1e9, now);
        EXPECT_EQ(victims, sort->selectVictims(sort_pool, 1e9, now));
        EXPECT_EQ(victims.size(), heap_pool.idleCount());
        EXPECT_EQ(heap->clock(), clock_before);  // nothing was freed
        // A proposal is not an eviction: the same search repeats.
        EXPECT_EQ(heap->selectVictims(heap_pool, 1e9, now), victims);
    }
}

TEST(GdAdmission, ResizeBelowIdleMemoryMatchesOracle)
{
    // Simulator::resize evicts a prefix of its search's proposal, or all
    // of it when busy containers alone exceed the new capacity. The
    // capacity is restored at once, so no arrival meets an over-full
    // pool.
    const Trace trace = mixedTrace(3, 0.4, 0.5, 20 * kMinute, false);
    SimulatorConfig sim;
    sim.memory_mb = 4000;
    sim.memory_sample_interval_us = kMinute;
    for (const GreedyDualConfig& config : ablationConfigs(0.0)) {
        SCOPED_TRACE(describe(config));
        std::vector<std::string> payloads;
        for (const GdEvictionEngine engine :
             {GdEvictionEngine::LazyHeap, GdEvictionEngine::SortReference}) {
            Simulator simulator(trace, gd(config, engine), sim);
            std::size_t step = 0;
            while (!simulator.done()) {
                simulator.step();
                if (++step % 200 == 0) {
                    simulator.resize(step % 400 == 0 ? 300 : 1200);
                    simulator.resize(4000);
                }
            }
            payloads.push_back(
                encodeCheckpointPayload("gd", simulator.result()));
        }
        EXPECT_EQ(payloads[0], payloads[1]);
    }
}

// ---------------------------------------------------------------------------
// The heap engine learns candidates from the pool's release log and holds
// its proposals aside until the next search; both pool backends.

class GdReleaseLog : public ::testing::TestWithParam<PoolBackend>
{
};

TEST_P(GdReleaseLog, PrewarmedIdleContainerRanksAsSortReference)
{
    // A prewarmed container never runs, so only the pool's add logs it;
    // cheapest to restart, it is the first victim under both engines.
    const FunctionSpec cheap = fn(0, 100, 500, 1000);   // value 0.01
    const FunctionSpec mid = fn(1, 100, 500, 3000);     // value 0.03
    const FunctionSpec costly = fn(2, 100, 500, 5000);  // value 0.05
    std::vector<std::vector<ContainerId>> runs;
    ContainerId prewarmed_id = kInvalidContainer;
    for (const GdEvictionEngine engine :
         {GdEvictionEngine::LazyHeap, GdEvictionEngine::SortReference}) {
        ContainerPool pool(10'000, GetParam());
        auto policy = gd({}, engine);
        for (const FunctionSpec& f : {mid, costly}) {
            policy->onInvocationArrival(f, 0);
            Container& c = pool.add(f, 0);
            c.startInvocation(0, f.cold_us);
            policy->onColdStart(c, f, 0);
            c.finishInvocation();
        }
        // A search before the prewarm drains the log once.
        std::vector<ContainerId> victims =
            policy->selectVictims(pool, 1e9, kSecond);
        Container& p = pool.add(cheap, 2 * kSecond, /*prewarmed=*/true);
        policy->onPrewarm(p, cheap, 2 * kSecond);
        prewarmed_id = p.id();
        for (const MemMb needed : {100.0, 1e9}) {
            const auto more = policy->selectVictims(pool, needed, 3 * kSecond);
            victims.insert(victims.end(), more.begin(), more.end());
        }
        runs.push_back(victims);
    }
    EXPECT_EQ(runs[0], runs[1]);
    ASSERT_EQ(runs[0].size(), 6u);  // 2 declined, then 1, then all 3
    EXPECT_EQ(runs[0][2], prewarmed_id);
    EXPECT_EQ(runs[0][3], prewarmed_id);
}

TEST_P(GdReleaseLog, DeclinedProposalReusedBeforeNextSearchIsNotRePushed)
{
    const FunctionSpec a = fn(0, 100, 500, 2000);  // value 0.02
    const FunctionSpec b = fn(1, 100, 500, 5000);  // value 0.05
    const FunctionSpec c = fn(2, 100, 500, 1000);  // value 0.01
    std::vector<std::vector<ContainerId>> searches[2];
    std::size_t heap_size_after_second = 0;
    for (const GdEvictionEngine engine :
         {GdEvictionEngine::LazyHeap, GdEvictionEngine::SortReference}) {
        const bool lazy = engine == GdEvictionEngine::LazyHeap;
        std::vector<std::vector<ContainerId>>& mine = searches[lazy ? 0 : 1];
        ContainerPool pool(10'000, GetParam());
        auto policy = gd({}, engine);
        const auto cold = [&](const FunctionSpec& f, TimeUs now) {
            policy->onInvocationArrival(f, now);
            Container& x = pool.add(f, now);
            x.startInvocation(now, now + f.cold_us);
            policy->onColdStart(x, f, now);
            x.finishInvocation();
            return &x;
        };
        Container* ca = cold(a, 0);
        cold(b, 0);
        // Infeasible: both proposed, none evicted, the clock stays put.
        mine.push_back(policy->selectVictims(pool, 1e9, kSecond));
        EXPECT_EQ(policy->clock(), 0.0);
        // The declined A is reused before the next search.
        policy->onInvocationArrival(a, 2 * kSecond);
        ca->startInvocation(2 * kSecond, 2 * kSecond + a.warm_us);
        policy->onWarmStart(*ca, a, 2 * kSecond);
        ca->finishInvocation();
        cold(c, 3 * kSecond);
        mine.push_back(policy->selectVictims(pool, 100, 4 * kSecond));
        if (lazy)
            heap_size_after_second = policy->heapSize();
        // B, declined and never reused, is a candidate again.
        mine.push_back(policy->selectVictims(pool, 1e9, 5 * kSecond));
    }
    EXPECT_EQ(searches[0], searches[1]);
    ASSERT_EQ(searches[0].size(), 3u);
    EXPECT_EQ(searches[0][1].size(), 1u);
    EXPECT_EQ(searches[0][2].size(), 3u);
    // A and B in the heap, C held aside: A's declined entry from the
    // first search was retired by its reuse and must not come back.
    EXPECT_EQ(heap_size_after_second, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GdReleaseLog,
                         ::testing::Values(PoolBackend::Slab,
                                           PoolBackend::ReferenceMap),
                         [](const auto& info) {
                             return std::string(
                                 poolBackendName(info.param));
                         });

}  // namespace
}  // namespace faascache
