#include "platform/fault_injection.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/policy_factory.h"
#include "platform/server.h"

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

Trace
steadyTrace(int count, TimeUs gap, int functions = 1)
{
    Trace t("steady");
    for (int f = 0; f < functions; ++f)
        t.addFunction(fn(static_cast<FunctionId>(f), 100));
    for (int i = 0; i < count; ++i)
        t.addInvocation(static_cast<FunctionId>(i % functions), i * gap);
    return t;
}

TEST(FaultPlan, DefaultIsEmpty)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.validate();  // a default plan is always valid
}

TEST(FaultPlan, NonEmptyWhenAnyFaultEnabled)
{
    FaultPlan crash_only;
    crash_only.crashes.push_back({0, kMinute, kMinute});
    EXPECT_FALSE(crash_only.empty());

    FaultPlan spawn_only;
    spawn_only.spawn_failure_prob = 0.1;
    EXPECT_FALSE(spawn_only.empty());

    FaultPlan straggler_only;
    straggler_only.straggler_prob = 0.1;
    EXPECT_FALSE(straggler_only.empty());

    FaultPlan stall_only;
    stall_only.reclaim_stall_prob = 0.1;
    EXPECT_FALSE(stall_only.empty());
}

TEST(FaultPlan, ValidateRejectsBadValues)
{
    {
        FaultPlan p;
        p.spawn_failure_prob = 1.5;
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.straggler_prob = -0.1;
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.straggler_prob = 0.5;
        p.straggler_multiplier = 0.5;  // would speed cold starts up
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.spawn_failure_prob = 0.5;
        p.spawn_retry_delay_us = 0;
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.reclaim_stall_prob = 0.5;
        p.reclaim_stall_us = -1;
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.crashes.push_back({0, -kSecond, 0});
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.crashes.push_back({5, kMinute, 0});
        p.validate();  // fine without a fleet size...
        EXPECT_THROW(p.validate(4), std::invalid_argument);  // ...not with
    }
}

TEST(FaultPlan, CrashesForFiltersAndSorts)
{
    FaultPlan plan;
    plan.crashes.push_back({1, 30 * kMinute, kMinute});
    plan.crashes.push_back({0, 20 * kMinute, kMinute});
    plan.crashes.push_back({1, 10 * kMinute, kMinute});
    const auto own = plan.crashesFor(1);
    ASSERT_EQ(own.size(), 2u);
    EXPECT_EQ(own[0].at_us, 10 * kMinute);
    EXPECT_EQ(own[1].at_us, 30 * kMinute);
    EXPECT_EQ(plan.crashesFor(0).size(), 1u);
    EXPECT_TRUE(plan.crashesFor(2).empty());
}

TEST(FaultPlan, CapacityLossWindows)
{
    FaultPlan plan;
    // Server 0 down [10, 20) min; server 1 down [15, 30) min: the
    // overlap [15, 20) has only 2 of 4 servers up.
    plan.crashes.push_back({0, 10 * kMinute, 10 * kMinute});
    plan.crashes.push_back({1, 15 * kMinute, 15 * kMinute});
    const auto windows = plan.capacityLossWindows(4);
    ASSERT_EQ(windows.size(), 3u);
    EXPECT_EQ(windows[0].from_us, 10 * kMinute);
    EXPECT_EQ(windows[0].until_us, 15 * kMinute);
    EXPECT_DOUBLE_EQ(windows[0].available_fraction, 0.75);
    EXPECT_EQ(windows[1].from_us, 15 * kMinute);
    EXPECT_EQ(windows[1].until_us, 20 * kMinute);
    EXPECT_DOUBLE_EQ(windows[1].available_fraction, 0.5);
    EXPECT_EQ(windows[2].from_us, 20 * kMinute);
    EXPECT_EQ(windows[2].until_us, 30 * kMinute);
    EXPECT_DOUBLE_EQ(windows[2].available_fraction, 0.75);
}

TEST(FaultPlan, PermanentCrashYieldsOpenWindow)
{
    FaultPlan plan;
    plan.crashes.push_back({0, kMinute, 0});  // never restarts
    const auto windows = plan.capacityLossWindows(2);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].from_us, kMinute);
    EXPECT_EQ(windows[0].until_us, std::numeric_limits<TimeUs>::max());
    EXPECT_DOUBLE_EQ(windows[0].available_fraction, 0.5);
}

TEST(FaultInjector, SameSeedSameStream)
{
    FaultPlan plan;
    plan.spawn_failure_prob = 0.3;
    plan.straggler_prob = 0.3;
    plan.reclaim_stall_prob = 0.3;
    FaultInjector a(plan, 2);
    FaultInjector b(plan, 2);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.spawnFails(), b.spawnFails());
        EXPECT_EQ(a.coldStartStraggles(), b.coldStartStraggles());
        EXPECT_EQ(a.reclaimStall(), b.reclaimStall());
    }
}

TEST(FaultInjector, DistinctServersDistinctStreams)
{
    FaultPlan plan;
    plan.spawn_failure_prob = 0.5;
    FaultInjector a(plan, 0);
    FaultInjector b(plan, 1);
    int differing = 0;
    for (int i = 0; i < 200; ++i)
        differing += a.spawnFails() != b.spawnFails() ? 1 : 0;
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, DisabledFaultsDrawNothing)
{
    FaultPlan plan;  // all probabilities zero
    FaultInjector injector(plan, 0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(injector.spawnFails());
        EXPECT_FALSE(injector.coldStartStraggles());
        EXPECT_EQ(injector.reclaimStall(), 0);
    }
}

// --- Server-level fault behaviour ---------------------------------------

PlatformResult
runWithPlan(const Trace& trace, const ServerConfig& cfg,
            const FaultPlan& plan)
{
    Server server(makePolicy(PolicyKind::GreedyDual), cfg);
    FaultInjector injector(plan, 0);
    server.setFaultInjector(&injector);
    return server.run(trace);
}

TEST(ServerFaults, EmptyPlanMatchesNoInjector)
{
    const Trace t = steadyTrace(500, 100 * kMillisecond, 8);
    const ServerConfig cfg = config(4, 600);

    Server plain(makePolicy(PolicyKind::GreedyDual), cfg);
    const PlatformResult base = plain.run(t);
    const PlatformResult faulted = runWithPlan(t, cfg, FaultPlan{});

    EXPECT_EQ(base.warm_starts, faulted.warm_starts);
    EXPECT_EQ(base.cold_starts, faulted.cold_starts);
    EXPECT_EQ(base.dropped(), faulted.dropped());
    EXPECT_EQ(base.evictions, faulted.evictions);
    EXPECT_EQ(base.latencies_sec, faulted.latencies_sec);
    EXPECT_EQ(faulted.robustness, RobustnessCounters{});
}

TEST(ServerFaults, SpawnFailuresDelayButServe)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    FaultPlan plan;
    plan.spawn_failure_prob = 0.5;
    plan.spawn_retry_delay_us = 100 * kMillisecond;
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);
    EXPECT_EQ(r.served() + r.dropped(), 1);
    if (r.robustness.spawn_failures > 0 && r.served() == 1) {
        // Each failed attempt delays the start by the holdoff.
        EXPECT_GE(r.latencies_sec[0],
                  2.0 + 0.1 * static_cast<double>(
                                  r.robustness.spawn_failures) -
                      1e-9);
    }
}

TEST(ServerFaults, CertainSpawnFailureTimesOut)
{
    Trace t("t");
    t.addFunction(fn(0, 100));
    t.addInvocation(0, 0);
    ServerConfig cfg = config(2, 1'000);
    cfg.queue_timeout_us = 2 * kSecond;
    FaultPlan plan;
    plan.spawn_failure_prob = 1.0;
    plan.spawn_retry_delay_us = 100 * kMillisecond;
    const PlatformResult r = runWithPlan(t, cfg, plan);
    EXPECT_EQ(r.served(), 0);
    EXPECT_EQ(r.dropped_timeout, 1);
    EXPECT_GT(r.robustness.spawn_failures, 0);
}

TEST(ServerFaults, StragglersInflateColdStartLatency)
{
    Trace t("t");
    t.addFunction(fn(0, 100, 1.0, 1.0));
    t.addInvocation(0, 0);
    FaultPlan plan;
    plan.straggler_prob = 1.0;
    plan.straggler_multiplier = 3.0;
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);
    ASSERT_EQ(r.served(), 1);
    EXPECT_EQ(r.robustness.straggler_cold_starts, 1);
    // init 1 s * 3 + warm 1 s
    EXPECT_NEAR(r.latencies_sec[0], 4.0, 1e-6);
}

TEST(ServerFaults, ReclaimStallDelaysEvictingColdStart)
{
    Trace t("t");
    t.addFunction(fn(0, 600, 1.0, 1.0));
    t.addFunction(fn(1, 600, 1.0, 1.0));
    t.addInvocation(0, 0);
    // Arrives after fn0 finished; must evict fn0's container to fit.
    t.addInvocation(1, 10 * kSecond);
    FaultPlan plan;
    plan.reclaim_stall_prob = 1.0;
    plan.reclaim_stall_us = 500 * kMillisecond;
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);
    ASSERT_EQ(r.served(), 2);
    EXPECT_EQ(r.robustness.reclaim_stalls, 1);
    EXPECT_NEAR(r.latencies_sec[1], 2.5, 1e-6);  // stall + init + warm
}

TEST(ServerFaults, CrashAbortsAndRestartRecovers)
{
    // 20 arrivals one per second; crash at 5.5 s aborts the running
    // invocation, drops queued work, and rejects arrivals until the
    // restart at 8.5 s.
    const Trace t = steadyTrace(20, kSecond);
    FaultPlan plan;
    plan.crashes.push_back({0, 5 * kSecond + 500 * kMillisecond,
                            3 * kSecond});
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);
    EXPECT_EQ(r.robustness.crashes, 1);
    EXPECT_EQ(r.robustness.restarts, 1);
    EXPECT_GT(r.robustness.crash_flushed_containers, 0);
    EXPECT_GT(r.robustness.dropped_unavailable, 0);
    EXPECT_EQ(r.robustness.downtime_us, 3 * kSecond);
    // Conservation: every invocation is served, dropped, or aborted.
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
    // Post-restart the pool is cold again.
    EXPECT_GT(r.cold_starts, 1);
}

TEST(ServerFaults, PermanentCrashChargesDowntimeToHorizon)
{
    const Trace t = steadyTrace(10, kSecond);
    FaultPlan plan;
    plan.crashes.push_back({0, 4 * kSecond, 0});  // never restarts
    ServerConfig cfg = config(2, 1'000);
    const PlatformResult r = runWithPlan(t, cfg, plan);
    EXPECT_EQ(r.robustness.crashes, 1);
    EXPECT_EQ(r.robustness.restarts, 0);
    // Horizon = last arrival + queue timeout; downtime runs to it.
    const TimeUs horizon = 9 * kSecond + cfg.queue_timeout_us;
    EXPECT_EQ(r.robustness.downtime_us, horizon - 4 * kSecond);
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ServerFaults, CrashExactlyAtTheRestartBoundary)
{
    // The second crash is scheduled for the precise restart instant of
    // the first: the server restarts and immediately dies again. Both
    // downtimes must be charged and the request ledger must balance.
    const Trace t = steadyTrace(30, kSecond);
    FaultPlan plan;
    plan.crashes.push_back({0, 5 * kSecond, 3 * kSecond});
    plan.crashes.push_back({0, 8 * kSecond, 3 * kSecond});
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);

    EXPECT_EQ(r.robustness.crashes, 2);
    EXPECT_EQ(r.robustness.restarts, 2);
    EXPECT_EQ(r.robustness.downtime_us, 6 * kSecond);
    // Conservation: served + dropped (all flavours) covers the trace.
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ServerFaults, BackToBackCrashWindowsConserveRequests)
{
    // Two windows separated by a single second of uptime: the brief
    // recovery must actually serve (or queue) traffic, and nothing may
    // be double-dropped across the windows.
    const Trace t = steadyTrace(40, kSecond);
    FaultPlan plan;
    plan.crashes.push_back({0, 5 * kSecond, 4 * kSecond});
    plan.crashes.push_back({0, 10 * kSecond, 4 * kSecond});
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);

    EXPECT_EQ(r.robustness.crashes, 2);
    EXPECT_EQ(r.robustness.restarts, 2);
    EXPECT_EQ(r.robustness.downtime_us, 8 * kSecond);
    EXPECT_GT(r.robustness.dropped_unavailable, 0);
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ServerFaults, SameSeedReproducesCounters)
{
    const Trace t = steadyTrace(300, 200 * kMillisecond, 6);
    FaultPlan plan;
    plan.spawn_failure_prob = 0.2;
    plan.straggler_prob = 0.2;
    plan.crashes.push_back({0, 20 * kSecond, 5 * kSecond});
    const ServerConfig cfg = config(2, 500);
    const PlatformResult a = runWithPlan(t, cfg, plan);
    const PlatformResult b = runWithPlan(t, cfg, plan);
    EXPECT_EQ(a.robustness, b.robustness);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.latencies_sec, b.latencies_sec);
}

TEST(ServerConfigValidation, RejectsBadValues)
{
    {
        ServerConfig c = config(2, 1'000);
        c.queue_capacity = 0;
        EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        ServerConfig c = config(2, 0);  // no pool memory
        EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        ServerConfig c = config(2, 1'000);
        c.queue_timeout_us = 0;
        EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        ServerConfig c = config(2, 1'000);
        c.maintenance_interval_us = -kSecond;
        EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
    {
        ServerConfig c = config(2, 1'000);
        c.cold_start_cpu_slots = 3;  // more than cores
        EXPECT_THROW(Server(makePolicy(PolicyKind::Lru), c),
                     std::invalid_argument);
    }
}

// --- Expanded fault model: validation ------------------------------------

/** The validate() error message must name the offending field. */
void
expectValidateError(const FaultPlan& plan, const std::string& needle,
                    std::size_t num_servers = 0)
{
    try {
        plan.validate(num_servers);
        FAIL() << "expected validate() to reject a plan mentioning \""
               << needle << "\"";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error message was: " << e.what();
    }
}

TEST(FaultPlanValidation, RejectsNegativeDurations)
{
    {
        FaultPlan p;
        p.crash_bursts.push_back({-kSecond, 0, 2, kSecond, 0});
        expectValidateError(p, "crash_burst 0");
    }
    {
        FaultPlan p;
        p.crash_bursts.push_back({kSecond, -kSecond, 2, kSecond, 0});
        expectValidateError(p, "window_us");
    }
    {
        FaultPlan p;
        p.crash_bursts.push_back({kSecond, 0, 0, kSecond, 0});
        expectValidateError(p, "servers == 0");
    }
    {
        FaultPlan p;
        p.partitions.push_back({0, -kSecond, kSecond});
        expectValidateError(p, "from_us");
    }
    {
        FaultPlan p;
        p.partitions.push_back({0, 2 * kSecond, kSecond});  // inverted
        expectValidateError(p, "inverted");
    }
    {
        FaultPlan p;
        p.oom_kills.push_back({0, -kSecond});
        expectValidateError(p, "oom_kill 0");
    }
}

TEST(FaultPlanValidation, RejectsOutOfRangeServers)
{
    {
        FaultPlan p;
        p.partitions.push_back({7, kSecond, kMinute});
        p.validate();  // fine without a fleet size...
        expectValidateError(p, "server 7", 4);  // ...not with
    }
    {
        FaultPlan p;
        p.oom_kills.push_back({9, kSecond});
        p.validate();
        expectValidateError(p, "server 9", 4);
    }
}

TEST(FaultPlanValidation, RejectsOverlappingCrashWindows)
{
    // Second crash lands inside the first downtime [5, 15) s.
    FaultPlan p;
    p.crashes.push_back({0, 5 * kSecond, 10 * kSecond});
    p.crashes.push_back({0, 8 * kSecond, kSecond});
    expectValidateError(p, "overlapping crash windows on server 0");
}

TEST(FaultPlanValidation, RejectsCrashAfterPermanentCrash)
{
    // The earlier crash never restarts; the later one would be
    // silently absorbed by the open-ended outage.
    FaultPlan p;
    p.crashes.push_back({0, 5 * kSecond, 0});
    p.crashes.push_back({0, 60 * kSecond, kSecond});
    expectValidateError(p, "never restarts");
}

TEST(FaultPlanValidation, AcceptsBoundaryAndDisjointWindows)
{
    // Crash exactly at the restart instant (Failure lane delivers the
    // restart first) and fully disjoint windows are both fine, in
    // either declaration order.
    FaultPlan p;
    p.crashes.push_back({0, 8 * kSecond, 3 * kSecond});
    p.crashes.push_back({0, 5 * kSecond, 3 * kSecond});
    p.crashes.push_back({1, 6 * kSecond, kSecond});
    p.validate(2);
}

TEST(FaultPlanValidation, ChecksBurstVictimsWhenFleetKnown)
{
    // A burst victim crashing inside an explicit crash's downtime must
    // be caught — overlap checking runs over the expanded schedule.
    FaultPlan p;
    p.crashes.push_back({0, kSecond, kMinute});
    CrashBurst burst;
    burst.at_us = 10 * kSecond;
    burst.window_us = 0;
    burst.servers = 1;  // the only server: guaranteed collision
    burst.restart_after_us = kSecond;
    p.crash_bursts.push_back(burst);
    expectValidateError(p, "overlapping crash windows", 1);
}

// --- Expanded fault model: burst expansion -------------------------------

TEST(FaultPlanExpansion, NoBurstsExpandsToExplicitCrashes)
{
    FaultPlan p;
    p.crashes.push_back({1, 5 * kSecond, kSecond});
    p.crashes.push_back({0, 2 * kSecond, kSecond});
    const auto expanded = p.expandedCrashes(4);
    ASSERT_EQ(expanded.size(), 2u);
    // Declaration order preserved, so fault-free-of-bursts plans keep
    // their exact event sequence numbers.
    EXPECT_EQ(expanded[0].server, 1u);
    EXPECT_EQ(expanded[1].server, 0u);
}

TEST(FaultPlanExpansion, BurstPicksDistinctServersInWindow)
{
    FaultPlan p;
    CrashBurst burst;
    burst.at_us = 10 * kSecond;
    burst.window_us = 2 * kSecond;
    burst.servers = 3;
    burst.restart_after_us = 5 * kSecond;
    p.crash_bursts.push_back(burst);
    const auto expanded = p.expandedCrashes(8);
    ASSERT_EQ(expanded.size(), 3u);
    std::vector<std::size_t> victims;
    for (const CrashEvent& c : expanded) {
        EXPECT_GE(c.at_us, 10 * kSecond);
        EXPECT_LE(c.at_us, 12 * kSecond);
        EXPECT_EQ(c.restart_after_us, 5 * kSecond);
        EXPECT_LT(c.server, 8u);
        victims.push_back(c.server);
    }
    std::sort(victims.begin(), victims.end());
    EXPECT_EQ(std::unique(victims.begin(), victims.end()), victims.end())
        << "burst victims must be distinct servers";
}

TEST(FaultPlanExpansion, ExpansionIsDeterministicAndSeedSensitive)
{
    FaultPlan p;
    CrashBurst burst;
    burst.at_us = kMinute;
    burst.window_us = 10 * kSecond;
    burst.servers = 4;
    p.crash_bursts.push_back(burst);

    const auto a = p.expandedCrashes(16);
    const auto b = p.expandedCrashes(16);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].server, b[i].server);
        EXPECT_EQ(a[i].at_us, b[i].at_us);
    }

    FaultPlan q = p;
    q.crash_bursts[0].seed = 99;
    const auto c = q.expandedCrashes(16);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].server != c[i].server ||
            a[i].at_us != c[i].at_us;
    EXPECT_TRUE(differs) << "burst seed must steer the expansion";
}

TEST(FaultPlanExpansion, BurstClampsToFleetSize)
{
    FaultPlan p;
    CrashBurst burst;
    burst.at_us = kMinute;
    burst.servers = 100;
    p.crash_bursts.push_back(burst);
    EXPECT_EQ(p.expandedCrashes(3).size(), 3u);
}

TEST(FaultPlanExpansion, CapacityLossIncludesBurstVictims)
{
    FaultPlan p;
    CrashBurst burst;
    burst.at_us = kMinute;
    burst.window_us = 0;
    burst.servers = 2;
    burst.restart_after_us = kMinute;
    p.crash_bursts.push_back(burst);
    const auto windows = p.capacityLossWindows(4);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_DOUBLE_EQ(windows[0].available_fraction, 0.5);
}

// --- Expanded fault model: OOM kills -------------------------------------

TEST(ServerFaults, OomKillAbortsFattestBusyContainer)
{
    // Two functions running concurrently; the kill at 0.5 s must pick
    // the fat one and roll its start accounting back.
    Trace t("t");
    t.addFunction(fn(0, 100, 2.0, 0.5));
    t.addFunction(fn(1, 400, 2.0, 0.5));
    t.addInvocation(0, 0);
    t.addInvocation(1, 0);
    FaultPlan plan;
    plan.oom_kills.push_back({0, 500 * kMillisecond});
    const PlatformResult r = runWithPlan(t, config(4, 1'000), plan);
    EXPECT_EQ(r.robustness.oom_kills, 1);
    EXPECT_EQ(r.robustness.crash_aborted, 1);
    // The fat function (id 1) lost its invocation; the small one kept
    // running to completion.
    EXPECT_EQ(r.outcomeOf(1).dropped, 1);
    EXPECT_EQ(r.outcomeOf(1).served(), 0);
    EXPECT_EQ(r.outcomeOf(0).served(), 1);
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ServerFaults, OomKillWithNothingBusyIsNoOp)
{
    // The kill fires long after the only invocation finished.
    Trace t("t");
    t.addFunction(fn(0, 100, 1.0, 0.5));
    t.addInvocation(0, 0);
    FaultPlan plan;
    plan.oom_kills.push_back({0, 20 * kSecond});
    const PlatformResult r = runWithPlan(t, config(2, 1'000), plan);
    EXPECT_EQ(r.robustness.oom_kills, 0);
    EXPECT_EQ(r.served(), 1);
}

TEST(ServerFaults, OomKillFreesCoresForQueuedWork)
{
    // One core, a long-running fat invocation, a queued second request:
    // the kill must release the core and let the queue drain.
    Trace t("t");
    t.addFunction(fn(0, 400, 60.0, 0.5));
    t.addFunction(fn(1, 100, 1.0, 0.5));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    ServerConfig cfg = config(1, 1'000);
    cfg.queue_timeout_us = 60 * kSecond;
    FaultPlan plan;
    plan.oom_kills.push_back({0, 5 * kSecond});
    const PlatformResult r = runWithPlan(t, cfg, plan);
    EXPECT_EQ(r.robustness.oom_kills, 1);
    EXPECT_EQ(r.outcomeOf(0).served(), 0);
    EXPECT_EQ(r.outcomeOf(1).served(), 1);
    EXPECT_EQ(r.total(),
              static_cast<std::int64_t>(t.invocations().size()));
}

}  // namespace
}  // namespace faascache
