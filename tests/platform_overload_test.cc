/**
 * @file
 * Overload-control subsystem tests: the admission controller, brownout
 * governor, retry budget, and circuit breaker in isolation, plus their
 * wiring through Server and the cluster front end.
 */
#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/experiment_checkpoint.h"
#include "platform/overload/admission_controller.h"
#include "platform/overload/brownout.h"
#include "platform/overload/circuit_breaker.h"
#include "platform/overload/retry_budget.h"
#include "platform/load_generator.h"
#include "platform/server.h"

#include "cluster_split_oracle.h"

namespace faascache {
namespace {

FunctionSpec
fn(FunctionId id, MemMb mem, double warm_sec = 1.0, double init_sec = 1.0)
{
    return makeFunction(id, "fn" + std::to_string(id), mem,
                        fromSeconds(warm_sec), fromSeconds(init_sec));
}

// ---------------------------------------------------------------------
// AdmissionController

TEST(AdmissionController, DisabledNeverSheds)
{
    AdmissionConfig cfg;  // enabled = false
    AdmissionController ac(cfg);
    for (int i = 0; i < 100; ++i)
        ac.onDequeue(kHour, static_cast<TimeUs>(i) * kSecond);
    EXPECT_FALSE(ac.violating());
    EXPECT_FALSE(ac.shouldShed(kHour));
    EXPECT_EQ(ac.violations(), 0);
}

TEST(AdmissionController, ViolationRequiresFullInterval)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.target_delay_us = kSecond;
    cfg.interval_us = 10 * kSecond;
    AdmissionController ac(cfg);

    // First above-target sojourn only arms the detector.
    ac.onDequeue(2 * kSecond, 0);
    EXPECT_FALSE(ac.violating());
    EXPECT_FALSE(ac.shouldShed(0));

    // Still within the grace interval: not yet a standing queue.
    ac.onDequeue(2 * kSecond, 5 * kSecond);
    EXPECT_FALSE(ac.violating());

    // A full interval above target: violation begins, shed immediately.
    ac.onDequeue(2 * kSecond, 10 * kSecond);
    EXPECT_TRUE(ac.violating());
    EXPECT_EQ(ac.violations(), 1);
    EXPECT_TRUE(ac.shouldShed(10 * kSecond));
}

TEST(AdmissionController, RecoveryClearsViolationInstantly)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.target_delay_us = kSecond;
    cfg.interval_us = 10 * kSecond;
    AdmissionController ac(cfg);
    ac.onDequeue(2 * kSecond, 0);
    ac.onDequeue(2 * kSecond, 10 * kSecond);
    ASSERT_TRUE(ac.violating());

    // One below-target sojourn ends the episode.
    ac.onDequeue(0, 11 * kSecond);
    EXPECT_FALSE(ac.violating());
    EXPECT_FALSE(ac.shouldShed(11 * kSecond));
    EXPECT_EQ(ac.violations(), 1);
}

TEST(AdmissionController, ShedScheduleEscalates)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.target_delay_us = kSecond;
    cfg.interval_us = 4 * kSecond;
    AdmissionController ac(cfg);
    ac.onDequeue(2 * kSecond, 0);
    ac.onDequeue(2 * kSecond, 4 * kSecond);
    ASSERT_TRUE(ac.violating());

    // k-th shed comes interval/sqrt(k) after the previous: the schedule
    // tightens as the violation persists.
    TimeUs now = 4 * kSecond;
    EXPECT_TRUE(ac.shouldShed(now));              // shed #1, gap 4 s
    EXPECT_FALSE(ac.shouldShed(now + kSecond));   // too soon
    now += 4 * kSecond;
    EXPECT_TRUE(ac.shouldShed(now));              // shed #2, gap 4/sqrt(2)
    EXPECT_FALSE(ac.shouldShed(now + 2 * kSecond));
    EXPECT_TRUE(ac.shouldShed(now + 2'828'427));  // 4 s / sqrt(2)
}

// ---------------------------------------------------------------------
// BrownoutGovernor

TEST(BrownoutGovernor, DisabledNeverEngages)
{
    BrownoutConfig cfg;  // enabled = false
    BrownoutGovernor gov(cfg);
    gov.noteMemoryPressure(kSecond);
    gov.update(/*admission_violating=*/true, 2 * kSecond);
    EXPECT_FALSE(gov.active());
    EXPECT_EQ(gov.windows(), 0);
    EXPECT_EQ(gov.activeUs(kHour), 0);
}

TEST(BrownoutGovernor, MemoryPressureEngagesAndHoldsMinDuration)
{
    BrownoutConfig cfg;
    cfg.enabled = true;
    cfg.min_duration_us = 5 * kSecond;
    BrownoutGovernor gov(cfg);

    gov.noteMemoryPressure(10 * kSecond);
    EXPECT_TRUE(gov.active());
    EXPECT_EQ(gov.windows(), 1);

    // Within the hold: stays engaged even with no trigger.
    gov.update(false, 12 * kSecond);
    EXPECT_TRUE(gov.active());

    // Hold elapsed and the pressure trigger expired: released, and the
    // window's duration is charged.
    gov.update(false, 15 * kSecond);
    EXPECT_FALSE(gov.active());
    EXPECT_EQ(gov.activeUs(kHour), 5 * kSecond);
}

TEST(BrownoutGovernor, AdmissionViolationEngagesAndReleases)
{
    BrownoutConfig cfg;
    cfg.enabled = true;
    cfg.min_duration_us = kSecond;
    BrownoutGovernor gov(cfg);

    gov.update(/*admission_violating=*/true, 10 * kSecond);
    EXPECT_TRUE(gov.active());
    // Violation persists: the window stays open past min duration.
    gov.update(true, 20 * kSecond);
    EXPECT_TRUE(gov.active());
    gov.update(false, 30 * kSecond);
    EXPECT_FALSE(gov.active());
    EXPECT_EQ(gov.windows(), 1);
    EXPECT_EQ(gov.activeUs(kHour), 20 * kSecond);
}

TEST(BrownoutGovernor, OpenWindowChargedToHorizon)
{
    BrownoutConfig cfg;
    cfg.enabled = true;
    cfg.min_duration_us = kSecond;
    BrownoutGovernor gov(cfg);
    gov.noteMemoryPressure(10 * kSecond);
    // Never released: activeUs charges the open tail up to the horizon.
    EXPECT_EQ(gov.activeUs(60 * kSecond), 50 * kSecond);
}

// ---------------------------------------------------------------------
// RetryBudget

TEST(RetryBudget, DisabledAlwaysSpends)
{
    RetryBudget budget{RetryBudgetConfig{}};  // ratio 0 = disabled
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(budget.trySpend());
}

TEST(RetryBudget, StartsWithBurstAndExhausts)
{
    RetryBudgetConfig cfg;
    cfg.ratio = 0.1;
    cfg.burst = 3.0;
    RetryBudget budget(cfg);
    EXPECT_TRUE(budget.trySpend());
    EXPECT_TRUE(budget.trySpend());
    EXPECT_TRUE(budget.trySpend());
    EXPECT_FALSE(budget.trySpend());  // bucket empty
}

TEST(RetryBudget, FreshArrivalsRefillAtRatio)
{
    RetryBudgetConfig cfg;
    cfg.ratio = 0.25;
    cfg.burst = 2.0;
    RetryBudget budget(cfg);
    ASSERT_TRUE(budget.trySpend());
    ASSERT_TRUE(budget.trySpend());
    ASSERT_FALSE(budget.trySpend());
    // Four fresh arrivals earn exactly one retry token (0.25 each).
    for (int i = 0; i < 4; ++i)
        budget.onFreshArrival();
    EXPECT_TRUE(budget.trySpend());
    EXPECT_FALSE(budget.trySpend());
}

TEST(RetryBudget, BurstCapsBanking)
{
    RetryBudgetConfig cfg;
    cfg.ratio = 1.0;
    cfg.burst = 2.0;
    RetryBudget budget(cfg);
    for (int i = 0; i < 100; ++i)
        budget.onFreshArrival();
    EXPECT_EQ(budget.tokens(), 2.0);
}

// ---------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreaker, DisabledAlwaysAllows)
{
    CircuitBreaker breaker{CircuitBreakerConfig{}};  // threshold 0
    for (int i = 0; i < 100; ++i)
        breaker.recordFailure(static_cast<TimeUs>(i));
    EXPECT_TRUE(breaker.allowRequest(kSecond));
    EXPECT_EQ(breaker.opens(), 0);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures)
{
    CircuitBreakerConfig cfg;
    cfg.failure_threshold = 3;
    cfg.open_duration_us = 5 * kSecond;
    CircuitBreaker breaker(cfg);

    breaker.recordFailure(kSecond);
    breaker.recordFailure(2 * kSecond);
    EXPECT_TRUE(breaker.allowRequest(2 * kSecond));  // still closed
    breaker.recordFailure(3 * kSecond);
    EXPECT_EQ(breaker.state(3 * kSecond), BreakerState::Open);
    EXPECT_FALSE(breaker.allowRequest(4 * kSecond));
    EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount)
{
    CircuitBreakerConfig cfg;
    cfg.failure_threshold = 3;
    CircuitBreaker breaker(cfg);
    breaker.recordFailure(kSecond);
    breaker.recordFailure(2 * kSecond);
    breaker.recordSuccess(3 * kSecond);  // streak broken
    breaker.recordFailure(4 * kSecond);
    breaker.recordFailure(5 * kSecond);
    EXPECT_EQ(breaker.state(5 * kSecond), BreakerState::Closed);
}

TEST(CircuitBreaker, HalfOpenAdmitsOneProbePerCooldown)
{
    CircuitBreakerConfig cfg;
    cfg.failure_threshold = 1;
    cfg.open_duration_us = 5 * kSecond;
    CircuitBreaker breaker(cfg);
    breaker.recordFailure(0);
    ASSERT_EQ(breaker.state(0), BreakerState::Open);
    EXPECT_FALSE(breaker.allowRequest(kSecond));

    // Cool-down elapsed: exactly one probe per cool-down window.
    EXPECT_EQ(breaker.state(5 * kSecond), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.allowRequest(5 * kSecond));
    EXPECT_FALSE(breaker.allowRequest(6 * kSecond));
    EXPECT_EQ(breaker.probes(), 1);

    // The probe succeeded: closed again.
    breaker.recordSuccess(6 * kSecond);
    EXPECT_EQ(breaker.state(6 * kSecond), BreakerState::Closed);
    EXPECT_TRUE(breaker.allowRequest(7 * kSecond));
    EXPECT_EQ(breaker.closes(), 1);
}

TEST(CircuitBreaker, FailedProbeReopens)
{
    CircuitBreakerConfig cfg;
    cfg.failure_threshold = 1;
    cfg.open_duration_us = 5 * kSecond;
    CircuitBreaker breaker(cfg);
    breaker.recordFailure(0);
    ASSERT_TRUE(breaker.allowRequest(5 * kSecond));  // probe
    breaker.recordFailure(5 * kSecond + kMillisecond);
    EXPECT_EQ(breaker.state(6 * kSecond), BreakerState::Open);
    EXPECT_FALSE(breaker.allowRequest(6 * kSecond));
    EXPECT_EQ(breaker.opens(), 2);
}

// ---------------------------------------------------------------------
// Server integration

TEST(ServerOverload, DefaultOffLeavesResultsUntouched)
{
    // Enabled-but-never-triggered overload control must be byte-equal
    // to the default-off run: thresholds far above anything the
    // workload can reach.
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    ServerConfig base;
    base.cores = 8;
    base.memory_mb = 8'000;

    Server off(makePolicy(PolicyKind::GreedyDual), base);
    const PlatformResult r_off = off.run(t);

    ServerConfig lax = base;
    lax.overload.admission.enabled = true;
    lax.overload.admission.target_delay_us = kHour;
    lax.overload.brownout.enabled = true;
    Server on(makePolicy(PolicyKind::GreedyDual), lax);
    const PlatformResult r_on = on.run(t);

    EXPECT_EQ(r_off.warm_starts, r_on.warm_starts);
    EXPECT_EQ(r_off.cold_starts, r_on.cold_starts);
    EXPECT_EQ(r_off.dropped(), r_on.dropped());
    EXPECT_EQ(r_off.latencies_sec, r_on.latencies_sec);
    EXPECT_EQ(r_on.overload, OverloadCounters{});
    EXPECT_EQ(r_off.overload, OverloadCounters{});
}

/** Saturating workload: one core, back-to-back 10 s jobs plus a flood. */
Trace
saturatingTrace()
{
    Trace t("saturate");
    t.addFunction(fn(0, 100, 10.0, 0.0));
    for (int i = 0; i < 60; ++i)
        t.addInvocation(0, static_cast<TimeUs>(i) * kSecond);
    return t;
}

TEST(ServerOverload, AdmissionShedsOnStandingQueue)
{
    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = kHour;  // timeouts would mask the shedding
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.target_delay_us = 5 * kSecond;
    cfg.overload.admission.interval_us = 10 * kSecond;

    const Trace t = saturatingTrace();
    Server server(makePolicy(PolicyKind::GreedyDual), cfg);
    const PlatformResult r = server.run(t);

    EXPECT_GT(r.overload.admission_shed, 0);
    EXPECT_GT(r.overload.admission_violations, 0);
    // Ledger: every invocation is served, queued-at-end, or shed.
    EXPECT_EQ(r.total(), static_cast<std::int64_t>(t.invocations().size()));
    // The standing queue was detected, so the run ends congested.
    EXPECT_GT(r.last_congested_us, 0);
}

TEST(ServerOverload, BrownoutServesWarmWhileDenyingCold)
{
    // fn0 (200 MB) gets a warm container; fn1 (1000 MB) then occupies
    // all remaining memory for 100 s. fn2 (400 MB) cannot fit even by
    // evicting the idle 200 MB — memory pressure engages brownout.
    // fn0's next arrival is a warm hit and must be served through the
    // brownout; fn3's cold request must be denied.
    Trace t("brownout");
    t.addFunction(fn(0, 200, 1.0, 1.0));
    t.addFunction(fn(1, 1'000, 100.0, 0.0));
    t.addFunction(fn(2, 400, 1.0, 1.0));
    t.addFunction(fn(3, 150, 1.0, 1.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, 10 * kSecond);
    t.addInvocation(2, 20 * kSecond);
    t.addInvocation(0, 21 * kSecond);
    t.addInvocation(3, 22 * kSecond);

    ServerConfig cfg;
    cfg.cores = 8;
    cfg.memory_mb = 1'200;
    cfg.queue_timeout_us = 30 * kSecond;
    cfg.overload.brownout.enabled = true;
    cfg.overload.brownout.min_duration_us = 60 * kSecond;

    Server server(makePolicy(PolicyKind::GreedyDual), cfg);
    const PlatformResult r = server.run(t);

    EXPECT_EQ(r.warm_starts, 1);  // fn0's second arrival, browned out
    EXPECT_GT(r.overload.brownout_denied_cold, 0);
    EXPECT_GE(r.overload.brownout_windows, 1);
    EXPECT_GT(r.overload.brownout_us, 0);
    // fn3 was denied the cold path; fn0 was not.
    EXPECT_GT(r.outcomeOf(3).dropped, 0);
    EXPECT_EQ(r.outcomeOf(0).dropped, 0);
}

TEST(ServerOverload, DeterministicAcrossRuns)
{
    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.target_delay_us = 2 * kSecond;
    cfg.overload.admission.interval_us = 5 * kSecond;
    cfg.overload.brownout.enabled = true;

    const Trace t = saturatingTrace();
    Server a(makePolicy(PolicyKind::GreedyDual), cfg);
    Server b(makePolicy(PolicyKind::GreedyDual), cfg);
    const PlatformResult ra = a.run(t);
    const PlatformResult rb = b.run(t);
    EXPECT_EQ(ra.latencies_sec, rb.latencies_sec);
    EXPECT_EQ(ra.overload, rb.overload);
    EXPECT_EQ(ra.last_congested_us, rb.last_congested_us);
}

// ---------------------------------------------------------------------
// Cluster integration

ClusterConfig
clusterConfig()
{
    ClusterConfig c;
    c.num_servers = 4;
    c.server.cores = 4;
    c.server.memory_mb = 512;
    c.balancing = LoadBalancing::RoundRobin;
    return c;
}

void
expectConservation(const ClusterResult& r, const Trace& t)
{
    std::int64_t resolved = r.shed_requests + r.failed_requests;
    for (const auto& s : r.servers)
        resolved += s.served() + s.dropped();
    EXPECT_EQ(resolved, static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ClusterOverload, RetryBudgetCapsRetryStorm)
{
    const Trace t = skewedFrequencyWorkload(20 * kMinute);
    ClusterConfig undefended = clusterConfig();
    undefended.faults.crashes.push_back({1, 5 * kMinute, 5 * kMinute});
    undefended.faults.crashes.push_back({1, 12 * kMinute, 5 * kMinute});
    const ClusterResult base =
        runCluster(t, PolicyKind::GreedyDual, undefended);
    ASSERT_GT(base.retries, 0);
    EXPECT_EQ(base.retry_budget_exhausted, 0);

    ClusterConfig defended = undefended;
    defended.failover.retry_budget.ratio = 0.0001;  // ~no refill
    defended.failover.retry_budget.burst = 1.0;
    const ClusterResult capped =
        runCluster(t, PolicyKind::GreedyDual, defended);

    EXPECT_GT(capped.retry_budget_exhausted, 0);
    EXPECT_LT(capped.retries, base.retries);
    expectConservation(capped, t);
}

TEST(ClusterOverload, BreakerOpensUnderSpawnFailureStorm)
{
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    ClusterConfig c = clusterConfig();
    c.faults.spawn_failure_prob = 1.0;  // every cold spawn fails
    c.faults.spawn_retry_delay_us = kSecond;
    c.server.queue_timeout_us = 10 * kSecond;
    c.failover.breaker.failure_threshold = 5;
    c.failover.breaker.open_duration_us = 30 * kSecond;

    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);
    EXPECT_GT(r.breaker_opens, 0);
    EXPECT_GT(r.breaker_probes, 0);
    expectConservation(r, t);
}

TEST(ClusterOverload, BreakerClosesAfterTransientStorm)
{
    // Intermittent spawn failures interleave failure streaks with
    // successes: breakers that open must close again via a successful
    // probe once the server makes progress.
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    ClusterConfig c = clusterConfig();
    c.faults.spawn_failure_prob = 0.5;
    c.faults.spawn_retry_delay_us = kSecond;
    c.server.queue_timeout_us = 10 * kSecond;
    c.failover.breaker.failure_threshold = 3;
    c.failover.breaker.open_duration_us = 10 * kSecond;

    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);
    if (r.breaker_opens > 0) {
        EXPECT_GT(r.breaker_closes, 0);
    }
    expectConservation(r, t);
}

TEST(ClusterOverload, JitteredRetriesStayDeterministic)
{
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    ClusterConfig c = clusterConfig();
    c.faults.crashes.push_back({1, 4 * kMinute, kMinute});
    ASSERT_GT(c.failover.backoff_jitter_frac, 0.0);  // on by default

    const ClusterResult a = runCluster(t, PolicyKind::GreedyDual, c);
    const ClusterResult b = runCluster(t, PolicyKind::GreedyDual, c);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t s = 0; s < a.servers.size(); ++s)
        EXPECT_EQ(a.servers[s].latencies_sec, b.servers[s].latencies_sec);
    expectConservation(a, t);

    // Zero jitter is a valid (legacy-equivalent) configuration.
    ClusterConfig sync = c;
    sync.failover.backoff_jitter_frac = 0.0;
    const ClusterResult legacy = runCluster(t, PolicyKind::GreedyDual, sync);
    expectConservation(legacy, t);
}

TEST(ClusterOverload, ServerOverloadKnobsWorkOnBothPaths)
{
    // Server-local admission control must behave identically in both
    // window regimes — one whole-run window (no front-end features) or
    // windows of base_backoff_us (forced by an inert shed mark): the
    // controllers live inside Server. The whole-run window must also
    // match the independent-server split oracle exactly.
    Trace t("cluster-saturate");
    t.addFunction(fn(0, 100, 10.0, 0.0));
    for (int i = 0; i < 240; ++i)
        t.addInvocation(0, static_cast<TimeUs>(i) * kSecond / 4);

    ClusterConfig c = clusterConfig();
    c.num_servers = 2;
    c.server.cores = 1;
    c.server.queue_timeout_us = kHour;
    c.server.overload.admission.enabled = true;
    c.server.overload.admission.target_delay_us = 5 * kSecond;
    c.server.overload.admission.interval_us = 10 * kSecond;

    const ClusterResult split = runCluster(t, PolicyKind::GreedyDual, c);
    EXPECT_EQ(encodeClusterCheckpointPayload("cell", split),
              encodeClusterCheckpointPayload(
                  "cell",
                  runClusterSplitOracle(t, PolicyKind::GreedyDual, c)));
    ClusterConfig forced = c;
    forced.failover.shed_queue_depth = forced.server.queue_capacity;
    const ClusterResult aware = runCluster(t, PolicyKind::GreedyDual, forced);

    EXPECT_GT(split.overload().admission_shed, 0);
    EXPECT_EQ(split.overload(), aware.overload());
    EXPECT_EQ(split.warmStarts(), aware.warmStarts());
    EXPECT_EQ(split.dropped(), aware.dropped());
}

}  // namespace
}  // namespace faascache
