#include "platform/server.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "platform/experiment_checkpoint.h"
#include "trace/azure_model.h"
#include "util/audit.h"

#include "housekeeping_counting_policy.h"

namespace faascache {
namespace {

FunctionSpec
fn(FunctionId id, MemMb mem, double warm_sec = 1.0, double init_sec = 1.0)
{
    return makeFunction(id, "fn" + std::to_string(id), mem,
                        fromSeconds(warm_sec), fromSeconds(init_sec));
}

ServerConfig
config(int cores, MemMb mem)
{
    ServerConfig c;
    c.cores = cores;
    c.memory_mb = mem;
    return c;
}

PlatformResult
run(const Trace& trace, const ServerConfig& cfg,
    PolicyKind kind = PolicyKind::Lru)
{
    Server server(makePolicy(kind), cfg);
    return server.run(trace);
}

TEST(Server, ServesSingleInvocationCold)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    const PlatformResult r = run(t, config(2, 1'000));
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.warm_starts, 0);
    EXPECT_EQ(r.dropped(), 0);
    ASSERT_EQ(r.latencies_sec.size(), 1u);
    EXPECT_NEAR(r.latencies_sec[0], 2.0, 1e-6);  // cold = warm + init
}

TEST(Server, SecondInvocationWarm)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    t.addInvocation(0, 5 * kSecond);
    const PlatformResult r = run(t, config(2, 1'000));
    EXPECT_EQ(r.warm_starts, 1);
    EXPECT_NEAR(r.meanLatencySecOf(0), (2.0 + 1.0) / 2.0, 1e-6);
}

TEST(Server, QueuesWhenCoresBusy)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addFunction(fn(1, 100));
    // One core: the second request waits for the first to finish.
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    const PlatformResult r = run(t, config(1, 1'000));
    EXPECT_EQ(r.served(), 2);
    ASSERT_EQ(r.latencies_sec.size(), 2u);
    // Second request waited 1 s (cold finished at 2 s) + its own 2 s.
    EXPECT_NEAR(r.latencies_sec[1], 3.0, 1e-6);
}

TEST(Server, DropsOnQueueOverflow)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 100.0, 0.0));  // 100 s execution
    for (int i = 0; i < 5; ++i)
        t.addInvocation(0, i * kMillisecond);
    ServerConfig c = config(1, 10'000);
    c.queue_capacity = 2;
    c.queue_timeout_us = kHour;
    const PlatformResult r = run(t, c);
    // 1 running + 2 queued; the other 2 dropped at arrival.
    EXPECT_EQ(r.dropped_queue_full, 2);
}

TEST(Server, DropsOnQueueTimeout)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 120.0, 0.0));  // 2-minute execution
    t.addInvocation(0, 0);
    t.addInvocation(0, kSecond);  // can't run for 2 minutes on 1 core
    ServerConfig c = config(1, 150);  // no memory for a 2nd container
    c.queue_timeout_us = 30 * kSecond;
    const PlatformResult r = run(t, c);
    EXPECT_EQ(r.cold_starts, 1);
    EXPECT_EQ(r.dropped_timeout, 1);
}

TEST(Server, DropsOversizedFunctionImmediately)
{
    Trace t("t");
    t.addFunction(fn(0, 9'999));
    t.addInvocation(0, 0);
    const PlatformResult r = run(t, config(2, 1'000));
    EXPECT_EQ(r.dropped_oversize, 1);
}

TEST(Server, EvictsIdleContainersUnderMemoryPressure)
{
    Trace t("t");
    t.addFunction(fn(0, 600));
    t.addFunction(fn(1, 600));
    t.addInvocation(0, 0);
    t.addInvocation(1, 10 * kSecond);
    const PlatformResult r = run(t, config(4, 1'000));
    EXPECT_EQ(r.cold_starts, 2);
    EXPECT_EQ(r.evictions, 1);
    EXPECT_EQ(r.dropped(), 0);
}

TEST(Server, WaitsForBusyMemoryInsteadOfDropping)
{
    Trace t("t");
    t.addFunction(fn(0, 600, 5.0, 1.0));
    t.addFunction(fn(1, 600, 1.0, 1.0));
    t.addInvocation(0, 0);            // holds 600 MB until t=6 s
    t.addInvocation(1, kSecond);      // needs 600 MB; waits, then runs
    const PlatformResult r = run(t, config(4, 1'000));
    EXPECT_EQ(r.served(), 2);
    EXPECT_EQ(r.dropped(), 0);
    // Second invocation waited ~5 s then cold-started (2 s).
    EXPECT_NEAR(r.latencies_sec[1], 5.0 + 2.0, 1e-6);
}

TEST(Server, TtlExpiryReleasesMemoryViaMaintenance)
{
    Trace t("t");
    t.addFunction(fn(0, 600));
    t.addFunction(fn(1, 600));
    t.addInvocation(0, 0);
    t.addInvocation(1, 15 * kMinute);  // after fn0's 10-minute TTL
    const PlatformResult r = run(t, config(4, 1'000), PolicyKind::Ttl);
    EXPECT_EQ(r.expirations, 1);
    EXPECT_EQ(r.evictions, 0);
    EXPECT_EQ(r.served(), 2);
}

TEST(Server, FifoOrderPreserved)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 1.0, 0.0));
    t.addFunction(fn(1, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, kMillisecond);
    t.addInvocation(0, 2 * kMillisecond);
    const PlatformResult r = run(t, config(1, 1'000));
    EXPECT_EQ(r.served(), 3);
    // Completion order must follow arrival order on one core.
    ASSERT_EQ(r.latencies_sec.size(), 3u);
    EXPECT_LT(r.latencies_sec[0], r.latencies_sec[1]);
    EXPECT_LT(r.latencies_sec[1], r.latencies_sec[2]);
}

TEST(Server, PerFunctionAccountingSumsToTotals)
{
    Trace t("t");
    t.addFunction(fn(0, 200));
    t.addFunction(fn(1, 300));
    for (int i = 0; i < 20; ++i)
        t.addInvocation(static_cast<FunctionId>(i % 2), i * kSecond);
    const PlatformResult r = run(t, config(2, 600));
    std::int64_t warm = 0, cold = 0, dropped = 0;
    for (FunctionId fn = 0; fn < r.catalog_size; ++fn) {
        const FunctionOutcome f = r.outcomeOf(fn);
        warm += f.warm;
        cold += f.cold;
        dropped += f.dropped;
    }
    EXPECT_EQ(warm, r.warm_starts);
    EXPECT_EQ(cold, r.cold_starts);
    EXPECT_EQ(dropped, r.dropped());
    EXPECT_EQ(r.total(), 20);
}

TEST(Server, Deterministic)
{
    Trace t("t");
    t.addFunction(fn(0, 200));
    t.addFunction(fn(1, 300));
    for (int i = 0; i < 30; ++i)
        t.addInvocation(static_cast<FunctionId>(i % 2),
                        i * 700 * kMillisecond);
    const PlatformResult a = run(t, config(2, 600), PolicyKind::GreedyDual);
    const PlatformResult b = run(t, config(2, 600), PolicyKind::GreedyDual);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.latencies_sec, b.latencies_sec);
}

TEST(Server, HistPrewarmWorksOnPlatform)
{
    // The same HIST policy drives the platform model: a periodic
    // function is eventually served warm via prewarmed containers.
    Trace t("t");
    t.addFunction(fn(0, 100, 0.2, 2.0));
    const TimeUs iat = 5 * kMinute;
    for (int i = 0; i < 12; ++i)
        t.addInvocation(0, i * iat);
    ServerConfig c = config(4, 1'000);
    const PlatformResult r = run(t, c, PolicyKind::Hist);
    EXPECT_GT(r.prewarms, 0);
    EXPECT_GE(r.warm_starts, 8);
}

TEST(Server, PrewarmDisabledOnPlatform)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 0.2, 2.0));
    for (int i = 0; i < 12; ++i)
        t.addInvocation(0, i * 5 * kMinute);
    ServerConfig c = config(4, 1'000);
    c.enable_prewarm = false;
    const PlatformResult r = run(t, c, PolicyKind::Hist);
    EXPECT_EQ(r.prewarms, 0);
}

TEST(Server, DefaultColdSlotsMatchLegacyBehaviour)
{
    // cold_start_cpu_slots = 1 must behave exactly like the plain
    // model: one core per invocation, no InitDone bookkeeping effects.
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addFunction(fn(1, 100));
    t.addInvocation(0, 0);
    t.addInvocation(1, 0);
    const PlatformResult r = run(t, config(2, 1'000));
    ASSERT_EQ(r.served(), 2);
    EXPECT_NEAR(r.latencies_sec[0], 2.0, 1e-6);
    EXPECT_NEAR(r.latencies_sec[1], 2.0, 1e-6);  // both run in parallel
}

TEST(Server, RejectsBadConfig)
{
    EXPECT_THROW(Server(nullptr, config(2, 1'000)), std::invalid_argument);
    EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), config(0, 1'000)),
                 std::invalid_argument);
}

TEST(Server, RejectsAQueueTimeoutPastTheArrivalLimit)
{
    ServerConfig c = config(2, 1'000);
    c.queue_timeout_us = kMaxArrivalUs;
    EXPECT_NO_THROW(Server(makePolicy(PolicyKind::Lru), c));
    c.queue_timeout_us = kMaxArrivalUs + 1;
    try {
        Server server(makePolicy(PolicyKind::Lru), c);
        ADD_FAILURE() << "queue_timeout_us past kMaxArrivalUs accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("queue_timeout_us"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Server, ServesAThinSliceOfAMillionFunctionCatalog)
{
    // A fleet server's memory follows the functions it serves: ten
    // functions out of a million leave ten records and ten-row tables.
    constexpr std::size_t kCatalog = 1'000'000;
    std::vector<FunctionSpec> catalog;
    catalog.reserve(kCatalog);
    for (std::size_t i = 0; i < kCatalog; ++i) {
        FunctionSpec spec;
        spec.id = static_cast<FunctionId>(i);
        spec.mem_mb = 64;
        spec.warm_us = 100 * kMillisecond;
        spec.cold_us = 300 * kMillisecond;
        catalog.push_back(std::move(spec));
    }
    Server server(makePolicy(PolicyKind::GreedyDual), config(4, 4'096));
    server.begin(catalog, 100);
    std::vector<FunctionId> served;
    for (int k = 0; k < 10; ++k)
        served.push_back(static_cast<FunctionId>(k * 99'991 + 7));
    std::size_t index = 0;
    for (int round = 0; round < 5; ++round) {
        for (FunctionId f : served) {
            const TimeUs now = static_cast<TimeUs>(index) * kSecond;
            server.advanceTo(now);
            server.offer(index++, Invocation{f, now}, now);
        }
    }
    const PlatformResult r = server.finish(60 * kSecond);
    EXPECT_EQ(r.catalog_size, kCatalog);
    EXPECT_LE(r.function_records.size(), served.size());
    EXPECT_EQ(r.served(), 50);
    for (FunctionId f : served)
        EXPECT_EQ(r.outcomeOf(f).served(), 5) << f;
    EXPECT_EQ(r.outcomeOf(0), FunctionOutcome{});
    EXPECT_EQ(r.outcomeOf(kCatalog - 1), FunctionOutcome{});
}

TEST(Server, RejectsAnArrivalPastTheLimit)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, kSecond);
    t.addInvocation(0, std::numeric_limits<TimeUs>::max());
    for (const PlatformBackend backend :
         {PlatformBackend::Dense, PlatformBackend::Reference}) {
        ServerConfig c = config(2, 1'000);
        c.platform_backend = backend;
        Server server(makePolicy(PolicyKind::Lru), c);
        TraceSource source(t);
        try {
            server.run(source);
            ADD_FAILURE() << "no error, backend "
                          << static_cast<int>(backend);
        } catch (const std::runtime_error& error) {
            EXPECT_EQ(std::string(error.what()).rfind(
                          "Server: arrival at 9223372036854775807 us is "
                          "past the latest accepted arrival time",
                          0),
                      0u)
                << error.what();
        }
    }
}

TEST(Server, RejectsUnsortedTrace)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, kSecond);
    t.addInvocation(0, 0);
    Server server(makePolicy(PolicyKind::Lru), config(2, 1'000));
    EXPECT_THROW(server.run(t), std::invalid_argument);
}

// finish(h) must not fire a maintenance tick past h. The incremental
// driver arms ticks before it knows the horizon, so the tick at 10 s is
// already in the heap when finish(6 s) names it; firing it would expire
// the container idle since 7 s, which run() over the same trace (whose
// last tick is the one at 0) never does.
TEST(Server, FinishFiresNoTickPastItsHorizon)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 5 * kSecond);
    ServerConfig cfg = config(2, 1'000);
    cfg.queue_timeout_us = kSecond;
    PolicyConfig ttl;
    ttl.ttl_us = 2 * kSecond;

    Server standalone(makePolicy(PolicyKind::Ttl, ttl), cfg);
    const PlatformResult ran = standalone.run(t);

    Server driven(makePolicy(PolicyKind::Ttl, ttl), cfg);
    driven.begin(t.functions(), t.invocations().size());
    driven.advanceTo(5 * kSecond);
    driven.offer(0, t.invocations()[0], 5 * kSecond);
    const PlatformResult finished = driven.finish(6 * kSecond);

    EXPECT_EQ(ran.expirations, 0);
    EXPECT_EQ(finished.expirations, 0);
    EXPECT_EQ(finished.served(), 1);
    EXPECT_EQ(encodePlatformCheckpointPayload("cell", finished),
              encodePlatformCheckpointPayload("cell", ran));
}

/** A handful of arrivals spread over one simulated day. */
Trace
idleDayTrace()
{
    Trace t("idle-day");
    t.addFunction(fn(0, 100));
    t.addFunction(fn(1, 200));
    t.addInvocation(0, 0);
    t.addInvocation(1, 6 * kHour + 3 * kSecond);
    t.addInvocation(0, 12 * kHour);
    t.addInvocation(0, 23 * kHour + 59 * kMinute);
    return t;
}

struct TickCount
{
    int ticks = 0;
    PlatformResult result;
};

/** Maintenance passes of a Greedy-Dual server over `trace`. */
TickCount
countTicks(const Trace& trace, ServerConfig cfg, bool incremental)
{
    TickCount out;
    Server server(makePolicy(PolicyKind::GreedyDual), cfg);
    if (!incremental) {
        out.result = server.run(trace);
    } else {
        server.begin(trace.functions(), trace.invocations().size());
        const auto& invs = trace.invocations();
        for (std::size_t i = 0; i < invs.size(); ++i) {
            server.advanceTo(invs[i].arrival_us);
            server.offer(i, invs[i], invs[i].arrival_us);
        }
        out.result = server.finish(24 * kHour);
    }
    out.ticks = static_cast<int>(server.maintenanceTicks());
    return out;
}

// Every tick of the day, as run() and the incremental driver schedule
// them without parking.
int
fullRunTicks(const Trace& trace, const ServerConfig& cfg)
{
    return static_cast<int>((trace.invocations().back().arrival_us +
                             cfg.queue_timeout_us) /
                            cfg.maintenance_interval_us) + 1;
}

int
fullIncrementalTicks(const ServerConfig& cfg)
{
    return static_cast<int>(24 * kHour / cfg.maintenance_interval_us) + 1;
}

TEST(Server, QuiescentGreedyDualServerParksItsTicks)
{
    const Trace trace = idleDayTrace();
    const ServerConfig cfg = config(2, 1'000);
    const int arrivals = static_cast<int>(trace.invocations().size());
    ASSERT_GT(fullRunTicks(trace, cfg), 8'000);
    for (bool incremental : {false, true}) {
        const TickCount parked = countTicks(trace, cfg, incremental);
        EXPECT_GT(parked.ticks, 0) << "incremental=" << incremental;
        EXPECT_LE(parked.ticks, 3 * arrivals + 1)
            << "incremental=" << incremental;
        EXPECT_EQ(parked.result.served(), arrivals);
    }
}

TEST(Server, AuditorOrBrownoutKeepsEveryTick)
{
    const Trace trace = idleDayTrace();
    Auditor audit;
    ServerConfig audited = config(2, 1'000);
    audited.audit = &audit;
    ServerConfig brownout = config(2, 1'000);
    brownout.overload.brownout.enabled = true;
    ServerConfig reference = config(2, 1'000);
    reference.platform_backend = PlatformBackend::Reference;
    for (const ServerConfig& cfg : {audited, brownout, reference}) {
        EXPECT_EQ(countTicks(trace, cfg, /*incremental=*/false).ticks,
                  fullRunTicks(trace, cfg));
        EXPECT_EQ(countTicks(trace, cfg, /*incremental=*/true).ticks,
                  fullIncrementalTicks(cfg));
    }
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

TEST(Server, ResourceConservingPolicySkipsHousekeepingExactly)
{
    // Greedy-Dual promises that expiry and prewarm calls do nothing, so
    // a maintenance tick skips them; a wrapper that hides the promise
    // gets the calls, and both runs agree byte for byte. Two cores and a
    // pool far below the working set keep the server busy, so its ticks
    // fire; prewarming stays on so every skipped branch is reachable.
    AzureModelConfig model;
    model.seed = 4;
    model.num_functions = 60;
    model.duration_us = 15 * kMinute;
    model.iat_median_sec = 10.0;
    const Trace t = generateAzureTrace(model);
    ServerConfig c = config(2, 600);
    for (const PlatformBackend backend :
         {PlatformBackend::Dense, PlatformBackend::Reference}) {
        SCOPED_TRACE(platformBackendName(backend));
        c.platform_backend = backend;
        std::vector<std::string> payloads;
        for (const bool forward : {true, false}) {
            int calls = 0;
            Server server(std::make_unique<HousekeepingCountingPolicy>(
                              makePolicy(PolicyKind::GreedyDual), forward,
                              calls),
                          c);
            const PlatformResult r = server.run(t);
            EXPECT_GT(server.maintenanceTicks(), 0);
            EXPECT_GT(r.evictions, 0);
            if (forward)
                EXPECT_EQ(calls, 0);
            else
                EXPECT_GT(calls, 0);
            payloads.push_back(encodePlatformCheckpointPayload("cell", r));
        }
        EXPECT_EQ(payloads[0], payloads[1]);
    }
}

}  // namespace
}  // namespace faascache
