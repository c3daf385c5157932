#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/greedy_dual.h"
#include "core/histogram_policy.h"
#include "core/lru_policy.h"
#include "core/policy_factory.h"
#include "core/ttl_policy.h"
#include "trace/azure_model.h"

#include "housekeeping_counting_policy.h"

namespace faascache {
namespace {

FunctionSpec
fn(FunctionId id, MemMb mem, double warm_ms = 100, double init_ms = 400)
{
    return makeFunction(id, "fn" + std::to_string(id), mem,
                        fromMillis(warm_ms), fromMillis(init_ms));
}

SimulatorConfig
config(MemMb mem)
{
    SimulatorConfig c;
    c.memory_mb = mem;
    c.memory_sample_interval_us = 0;
    return c;
}

TEST(Simulator, RejectsAnArrivalPastTheLimit)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, kSecond);
    t.addInvocation(0, std::numeric_limits<TimeUs>::max());
    TraceSource source(t);
    try {
        simulateSource(source, makePolicy(PolicyKind::Lru), config(1000));
        ADD_FAILURE() << "no error";
    } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what()).rfind(
                      "Simulator: arrival at 9223372036854775807 us is past "
                      "the latest accepted arrival time",
                      0),
                  0u)
            << error.what();
    }
}

TEST(Simulator, FirstInvocationIsCold)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.warm_starts, 0);
    EXPECT_EQ(r.dropped, 0);
}

TEST(Simulator, ReuseIsWarm)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    t.addInvocation(0, kSecond);  // after the cold run finished (500 ms)
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.warm_starts, 1);
}

TEST(Simulator, ConcurrentInvocationsNeedTwoContainers)
{
    Trace t("t");
    t.addFunction(fn(0, 100, /*warm_ms=*/1000, /*init_ms=*/1000));
    t.addInvocation(0, 0);
    t.addInvocation(0, fromMillis(100));  // first still running (cold 2 s)
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.cold_starts, 2);
    EXPECT_EQ(r.warm_starts, 0);
}

TEST(Simulator, ColdWhenOnlyBusyContainerExists)
{
    // Second invocation arrives while the single container is busy, and
    // memory only allows one more: served cold in a second container.
    Trace t("t");
    t.addFunction(fn(0, 100, 1000, 1000));
    t.addInvocation(0, 0);
    t.addInvocation(0, fromMillis(500));
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(200));
    EXPECT_EQ(r.cold_starts, 2);
}

TEST(Simulator, DropWhenMemoryUnavailable)
{
    // Pool of 150 MB: one 100 MB container busy; a second 100 MB request
    // cannot fit and nothing is evictable.
    Trace t("t");
    t.addFunction(fn(0, 100, 10'000, 0));
    t.addInvocation(0, 0);
    t.addInvocation(0, kSecond);  // first runs until 10 s
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(150));
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.dropped, 1);
    EXPECT_EQ(r.per_function[0].dropped, 1);
}

TEST(Simulator, OversizedFunctionAlwaysDrops)
{
    Trace t("t");
    t.addFunction(fn(0, 5'000));
    t.addInvocation(0, 0);
    t.addInvocation(0, kSecond);
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.dropped, 2);
    EXPECT_EQ(r.served(), 0);
}

TEST(Simulator, EvictionMakesRoom)
{
    Trace t("t");
    t.addFunction(fn(0, 600));
    t.addFunction(fn(1, 600));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);  // forces eviction of fn0's container
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.cold_starts, 2);
    EXPECT_EQ(r.dropped, 0);
    EXPECT_EQ(r.evictions, 1);
}

TEST(Simulator, TtlExpirationsCounted)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addFunction(fn(1, 100));
    t.addInvocation(0, 0);
    t.addInvocation(1, 20 * kMinute);  // fn0's container expired by now
    const SimResult r =
        simulateTrace(t, std::make_unique<TtlPolicy>(), config(1000));
    EXPECT_EQ(r.expirations, 1);
    EXPECT_EQ(r.cold_starts, 2);
}

TEST(Simulator, TtlCausesColdStartAfterExpiry)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    t.addInvocation(0, 20 * kMinute);
    const SimResult ttl =
        simulateTrace(t, std::make_unique<TtlPolicy>(), config(1000));
    EXPECT_EQ(ttl.cold_starts, 2);

    // A resource-conserving policy keeps it warm instead.
    const SimResult lru =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(lru.cold_starts, 1);
    EXPECT_EQ(lru.warm_starts, 1);
}

TEST(Simulator, ExecTimeAccounting)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 100, 400));  // warm 100 ms, cold 500 ms
    t.addInvocation(0, 0);
    t.addInvocation(0, kSecond);
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.baseline_exec_us, 2 * fromMillis(100));
    EXPECT_EQ(r.actual_exec_us, fromMillis(500) + fromMillis(100));
    EXPECT_NEAR(r.execTimeIncreasePercent(), 100.0 * 400.0 / 200.0, 1e-9);
}

TEST(Simulator, ColdStartPercent)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    for (int i = 0; i < 4; ++i)
        t.addInvocation(0, i * kSecond);
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), config(1000));
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.warm_starts, 3);
    EXPECT_NEAR(r.coldStartPercent(), 25.0, 1e-9);
}

TEST(Simulator, MemoryNeverExceedsCapacityWithIdleWorkload)
{
    Trace t("t");
    for (int i = 0; i < 8; ++i)
        t.addFunction(fn(static_cast<FunctionId>(i), 100));
    for (int i = 0; i < 64; ++i)
        t.addInvocation(static_cast<FunctionId>(i % 8), i * kSecond);
    SimulatorConfig c = config(350);
    Simulator sim(t, std::make_unique<GreedyDualPolicy>(), c);
    while (!sim.done()) {
        sim.step();
        EXPECT_LE(sim.pool().usedMb(), c.memory_mb + 1e-9);
    }
}

TEST(Simulator, StepApiMatchesRun)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addFunction(fn(1, 150));
    for (int i = 0; i < 20; ++i)
        t.addInvocation(static_cast<FunctionId>(i % 2), i * kSecond);

    const SimResult whole =
        simulateTrace(t, std::make_unique<GreedyDualPolicy>(), config(300));
    Simulator stepper(t, std::make_unique<GreedyDualPolicy>(), config(300));
    while (!stepper.done())
        stepper.step();
    EXPECT_EQ(stepper.result().cold_starts, whole.cold_starts);
    EXPECT_EQ(stepper.result().warm_starts, whole.warm_starts);
    EXPECT_EQ(stepper.result().dropped, whole.dropped);
}

TEST(Simulator, ResizeShrinkEvictsIdle)
{
    Trace t("t");
    t.addFunction(fn(0, 400));
    t.addFunction(fn(1, 400));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(0, kMinute);
    Simulator sim(t, std::make_unique<LruPolicy>(), config(1000));
    sim.step();
    sim.step();
    EXPECT_DOUBLE_EQ(sim.pool().usedMb(), 800.0);
    sim.resize(500);
    EXPECT_LE(sim.pool().usedMb(), 500.0);
    EXPECT_DOUBLE_EQ(sim.pool().capacityMb(), 500.0);
}

TEST(Simulator, ResizeGrowAllowsMoreContainers)
{
    Trace t("t");
    t.addFunction(fn(0, 400));
    t.addFunction(fn(1, 400));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(0, 2 * kSecond);
    Simulator sim(t, std::make_unique<LruPolicy>(), config(500));
    sim.step();
    sim.resize(1000);
    while (!sim.done())
        sim.step();
    // With 1000 MB both functions stay resident: third invocation warm.
    EXPECT_EQ(sim.result().warm_starts, 1);
    EXPECT_EQ(sim.result().evictions, 0);
}

TEST(Simulator, ColdStartAfterResizeBelowBusyMemoryStaysWithinCapacity)
{
    // Two 400 MB invocations fill 800 of 1000 MB: A ends at t=10, B at
    // t=1000. Shrinking to 500 MB cannot evict either (both busy), so
    // the pool sits 300 MB over capacity. At t=20 A is idle again and a
    // 150 MB cold arrival must either be dropped or fit after evictions
    // that also pay back the overshoot: evicting A alone (400 MB) only
    // brings usage to 400 MB, and 400 + 150 > 500.
    Trace t("t");
    t.addFunction(makeFunction(0, "a", 400, /*warm_us=*/5, /*init_us=*/5));
    t.addFunction(makeFunction(1, "b", 400, 500, 500));
    t.addFunction(makeFunction(2, "c", 150, 5, 5));
    t.addInvocation(0, 0);
    t.addInvocation(1, 0);
    t.addInvocation(2, 20);
    Simulator sim(t, std::make_unique<GreedyDualPolicy>(), config(1000));
    sim.step();
    sim.step();
    sim.resize(500);
    EXPECT_DOUBLE_EQ(sim.pool().usedMb(), 800.0);
    sim.step();
    const SimResult& r = sim.result();
    EXPECT_EQ(r.cold_starts + r.dropped, 3);
    if (r.cold_starts == 3)
        EXPECT_LE(sim.pool().usedMb(), sim.pool().capacityMb());
    else
        EXPECT_EQ(r.evictions, 0);  // a dropped request spares its victims
}

/** Azure-shaped trace with arrivals and execution times on a 100 ms
 *  grid, so invocations often finish exactly at another's arrival. */
Trace
gridTrace(std::uint64_t seed)
{
    AzureModelConfig model;
    model.seed = seed;
    model.num_functions = 120;
    model.duration_us = 20 * kMinute;
    model.iat_median_sec = 15.0;
    model.mem_median_mb = 96.0;
    model.mem_max_mb = 512.0;
    const Trace azure = generateAzureTrace(model);
    static constexpr TimeUs kGrid = 100 * kMillisecond;
    const auto duration = [](TimeUs us) {
        return std::max(kGrid, us / kGrid * kGrid);
    };
    Trace t("grid");
    for (const FunctionSpec& f : azure.functions()) {
        t.addFunction(makeFunction(f.id, f.name, f.mem_mb,
                                   duration(f.warm_us),
                                   duration(f.cold_us - f.warm_us)));
    }
    for (const Invocation& inv : azure.invocations())
        t.addInvocation(inv.function, inv.arrival_us / kGrid * kGrid);
    return t;
}

TEST(Simulator, FinishScheduleReleasesEverythingDue)
{
    const Trace t = gridTrace(5);
    for (PolicyKind kind :
         {PolicyKind::GreedyDual, PolicyKind::Ttl, PolicyKind::Hist}) {
        SCOPED_TRACE(policyKindName(kind));
        SimulatorConfig c = config(1500);
        c.enable_prewarm = true;
        c.background_reclaim_interval_us = 10 * kSecond;
        c.background_free_target_mb = 300;
        Simulator sim(t, makePolicy(kind), c);
        std::size_t steps = 0;
        std::int64_t added = 0;
        while (!sim.done()) {
            sim.step();
            ++steps;
            std::size_t busy = 0;
            bool overdue = false;
            sim.pool().forEach([&](const Container& ct) {
                if (!ct.busy())
                    return;
                ++busy;
                overdue = overdue || ct.busyUntil() <= sim.now();
            });
            ASSERT_FALSE(overdue) << "step " << steps;
            ASSERT_EQ(busy, sim.scheduledFinishes()) << "step " << steps;
            const std::int64_t now_added =
                sim.result().cold_starts + sim.result().prewarms;
            if (now_added != added) {
                ASSERT_LE(sim.pool().usedMb(), sim.pool().capacityMb())
                    << "step " << steps;
                added = now_added;
            }
            // Elastic churn: shrink below busy memory and grow back.
            if (steps % 500 == 0)
                sim.resize(steps % 1000 == 0 ? 1500 : 400);
        }
        EXPECT_GT(steps, 2000u);
        EXPECT_GT(sim.result().warm_starts, 0);
        EXPECT_GT(sim.result().background_reclaims, 0);
    }
}

TEST(Simulator, FinishAtNextArrivalIsWarm)
{
    // The cold start ends at 500 ms (100 ms warm + 400 ms init), exactly
    // when the next invocation arrives: the container is released first.
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    t.addInvocation(0, fromMillis(500));
    Simulator sim(t, std::make_unique<GreedyDualPolicy>(), config(100));
    sim.step();
    EXPECT_EQ(sim.scheduledFinishes(), 1u);
    sim.step();
    EXPECT_EQ(sim.result().cold_starts, 1);
    EXPECT_EQ(sim.result().warm_starts, 1);
    EXPECT_EQ(sim.result().dropped, 0);
    EXPECT_EQ(sim.scheduledFinishes(), 1u);
}

TEST(Simulator, SameInstantReleasesAgreeAcrossPoolBackends)
{
    // Containers 1..4 start in id order but finish in the opposite
    // order (4 and 3 at the same instant), and all are released by the
    // same arrival. The finish schedule releases them by (busyUntil,
    // id), the reference order of the pool by id; the idle order, and
    // so every later warm hit and eviction, must not depend on it.
    Trace t("t");
    t.addFunction(makeFunction(0, "a", 200, 3000, 0));
    t.addFunction(makeFunction(1, "b", 300, 2000, 0));
    t.addFunction(makeFunction(2, "c", 250, 1000, 0));
    t.addFunction(makeFunction(3, "d", 150, 999, 0));
    t.addFunction(makeFunction(4, "e", 400, 50, 100));
    t.addInvocation(0, 0);
    t.addInvocation(1, 1);
    t.addInvocation(2, 2);
    t.addInvocation(3, 3);
    t.addInvocation(4, 5000);  // releases all four, then must evict
    t.addInvocation(3, 5000);
    t.addInvocation(0, 6000);
    t.addInvocation(2, 6000);
    t.addInvocation(1, 7000);
    t.addInvocation(4, 7000);
    for (PolicyKind kind : allPolicyKinds()) {
        SCOPED_TRACE(policyKindName(kind));
        SimulatorConfig slab = config(1000);
        SimulatorConfig ref = slab;
        ref.pool_backend = PoolBackend::ReferenceMap;
        const SimResult a = simulateTrace(t, makePolicy(kind), slab);
        const SimResult b = simulateTrace(t, makePolicy(kind), ref);
        EXPECT_EQ(a, b);
        EXPECT_GT(a.evictions, 0);
    }
}

TEST(Simulator, ResizeRejectsNonPositive)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    Simulator sim(t, std::make_unique<LruPolicy>(), config(500));
    EXPECT_THROW(sim.resize(0), std::invalid_argument);
}

TEST(Simulator, RejectsUnsortedTrace)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, kSecond);
    t.addInvocation(0, 0);
    EXPECT_THROW(
        Simulator(t, std::make_unique<LruPolicy>(), config(1000)),
        std::invalid_argument);
}

TEST(Simulator, RejectsNullPolicy)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    EXPECT_THROW(Simulator(t, nullptr, config(1000)),
                 std::invalid_argument);
}

TEST(Simulator, MemorySamplingCoversTrace)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    for (int i = 0; i < 10; ++i)
        t.addInvocation(0, i * kMinute);
    SimulatorConfig c = config(1000);
    c.memory_sample_interval_us = kMinute;
    const SimResult r =
        simulateTrace(t, std::make_unique<LruPolicy>(), c);
    ASSERT_GE(r.memory_usage.size(), 10u);
    EXPECT_EQ(r.memory_usage.front().time_us, 0);
    for (std::size_t i = 1; i < r.memory_usage.size(); ++i) {
        EXPECT_EQ(r.memory_usage[i].time_us - r.memory_usage[i - 1].time_us,
                  kMinute);
    }
}

TEST(Simulator, HistPrewarmProducesWarmStart)
{
    // A perfectly periodic function under HIST: once the histogram is
    // trusted, containers are released after execution and prewarmed
    // before the next arrival, which then hits warm.
    Trace t("t");
    t.addFunction(fn(0, 100, 200, 2000));
    const TimeUs iat = 5 * kMinute;
    for (int i = 0; i < 12; ++i)
        t.addInvocation(0, i * iat);
    SimulatorConfig c = config(1000);
    const SimResult r =
        simulateTrace(t, std::make_unique<HistogramPolicy>(), c);
    EXPECT_GT(r.prewarms, 0);
    // Later invocations are all warm.
    EXPECT_GE(r.warm_starts, 8);
}

TEST(Simulator, PrewarmDisabledByConfig)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 200, 2000));
    for (int i = 0; i < 12; ++i)
        t.addInvocation(0, i * 5 * kMinute);
    SimulatorConfig c = config(1000);
    c.enable_prewarm = false;
    const SimResult r =
        simulateTrace(t, std::make_unique<HistogramPolicy>(), c);
    EXPECT_EQ(r.prewarms, 0);
}

TEST(Simulator, PerFunctionOutcomesSumToTotals)
{
    Trace t("t");
    for (int i = 0; i < 4; ++i)
        t.addFunction(fn(static_cast<FunctionId>(i), 100 + 50.0 * i));
    for (int i = 0; i < 50; ++i)
        t.addInvocation(static_cast<FunctionId>(i % 4),
                        i * 500 * kMillisecond);
    const SimResult r =
        simulateTrace(t, std::make_unique<GreedyDualPolicy>(), config(400));
    std::int64_t warm = 0, cold = 0, dropped = 0;
    for (const auto& f : r.per_function) {
        warm += f.warm;
        cold += f.cold;
        dropped += f.dropped;
    }
    EXPECT_EQ(warm, r.warm_starts);
    EXPECT_EQ(cold, r.cold_starts);
    EXPECT_EQ(dropped, r.dropped);
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

TEST(Simulator, ResourceConservingPolicySkipsHousekeepingExactly)
{
    // Greedy-Dual promises that expiry and prewarm calls do nothing, so
    // the simulator skips them; a wrapper that hides the promise gets
    // the calls, and both runs agree byte for byte. Background reclaim
    // and prewarming stay on so every skipped branch is reachable.
    AzureModelConfig model;
    model.seed = 4;
    model.num_functions = 60;
    model.duration_us = 15 * kMinute;
    model.iat_median_sec = 10.0;
    const Trace t = generateAzureTrace(model);
    SimulatorConfig c = config(600);
    c.memory_sample_interval_us = kMinute;
    c.background_reclaim_interval_us = 20 * kSecond;
    c.background_free_target_mb = 150;
    for (const PoolBackend backend :
         {PoolBackend::Slab, PoolBackend::ReferenceMap}) {
        SCOPED_TRACE(poolBackendName(backend));
        c.pool_backend = backend;
        std::vector<SimResult> results;
        for (const bool forward : {true, false}) {
            int calls = 0;
            results.push_back(simulateTrace(
                t,
                std::make_unique<HousekeepingCountingPolicy>(
                    std::make_unique<GreedyDualPolicy>(), forward, calls),
                c));
            if (forward)
                EXPECT_EQ(calls, 0);
            else
                EXPECT_GT(calls, 0);
        }
        EXPECT_GT(results[0].evictions, 0);
        EXPECT_GT(results[0].background_reclaims, 0);
        EXPECT_TRUE(results[0] == results[1]);
    }
}

TEST(Simulator, RejectsASpanPastTheArrivalLimit)
{
    // Two arrivals of a function whose warm and init times are each
    // about INT64_MAX / 2: its cold_us is near the TimeUs maximum, and
    // the first cold start's finish time (arrival + cold_us) would
    // overflow. The spec is invalid, so the trace is refused up front.
    const TimeUs half = std::numeric_limits<TimeUs>::max() / 2;
    Trace t("huge-span");
    t.addFunction(makeFunction(0, "huge", 100, half, half - 10));
    t.addInvocation(0, kSecond);
    t.addInvocation(0, 2 * kSecond);
    try {
        simulateTrace(t, makePolicy(PolicyKind::GreedyDual), config(1'000));
        ADD_FAILURE() << "a span past kMaxArrivalUs was accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("invalid trace"),
                  std::string::npos)
            << error.what();
    }

    // The longest span accepted runs, its finish time inside TimeUs.
    Trace edge("edge-span");
    edge.addFunction(makeFunction(0, "edge", 100, 1, kMaxArrivalUs - 1));
    edge.addInvocation(0, kSecond);
    edge.addInvocation(0, 2 * kSecond);
    const SimResult r =
        simulateTrace(edge, makePolicy(PolicyKind::GreedyDual), config(1'000));
    // The first container is still busy at 2 s: two cold starts.
    EXPECT_EQ(r.cold_starts, 2);
    EXPECT_EQ(r.dropped, 0);
}

TEST(Simulator, RejectsBadConfig)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    {
        SimulatorConfig c = config(0);  // no memory
        EXPECT_THROW(Simulator(t, makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        SimulatorConfig c = config(1'000);
        c.memory_sample_interval_us = -kSecond;
        EXPECT_THROW(Simulator(t, makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        SimulatorConfig c = config(1'000);
        c.background_reclaim_interval_us = kMinute;
        c.background_free_target_mb = 0;
        EXPECT_THROW(Simulator(t, makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
}

}  // namespace
}  // namespace faascache
