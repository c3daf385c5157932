#include "platform/cluster.h"

#include <gtest/gtest.h>

#include "platform/load_generator.h"
#include "util/audit.h"

namespace faascache {
namespace {

ClusterConfig
config(LoadBalancing balancing = LoadBalancing::RoundRobin,
       std::size_t servers = 4)
{
    ClusterConfig c;
    c.num_servers = servers;
    c.server.cores = 4;
    c.server.memory_mb = 512;
    c.balancing = balancing;
    return c;
}

/**
 * Every invocation resolved exactly once, fleet-wide. Crash-aborted
 * work does not enter the sum: its serve counters are rolled back on
 * abort and the front end re-dispatches (or fails) it, so it resolves
 * through one of the four terms below anyway.
 */
void
expectConservation(const ClusterResult& r, const Trace& t)
{
    std::int64_t resolved = r.shed_requests + r.failed_requests;
    for (const auto& s : r.servers)
        resolved += s.served() + s.dropped();
    EXPECT_EQ(resolved, static_cast<std::int64_t>(t.invocations().size()));
}

TEST(ClusterFailover, FaultAwarePathMatchesLegacyWithoutFaults)
{
    // Force windows of base_backoff_us with admission control that
    // never triggers; the result must match the whole-run window.
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    for (LoadBalancing lb : {LoadBalancing::Random,
                             LoadBalancing::RoundRobin,
                             LoadBalancing::FunctionHash}) {
        const ClusterResult legacy =
            runCluster(t, PolicyKind::GreedyDual, config(lb));
        ClusterConfig forced = config(lb);
        forced.failover.shed_queue_depth = forced.server.queue_capacity;
        const ClusterResult fault_aware =
            runCluster(t, PolicyKind::GreedyDual, forced);

        EXPECT_EQ(legacy.warmStarts(), fault_aware.warmStarts());
        EXPECT_EQ(legacy.coldStarts(), fault_aware.coldStarts());
        EXPECT_EQ(legacy.dropped(), fault_aware.dropped());
        EXPECT_EQ(fault_aware.retries, 0);
        EXPECT_EQ(fault_aware.failovers, 0);
        EXPECT_EQ(fault_aware.shed_requests, 0);
        ASSERT_EQ(legacy.servers.size(), fault_aware.servers.size());
        for (std::size_t s = 0; s < legacy.servers.size(); ++s) {
            EXPECT_EQ(legacy.servers[s].latencies_sec,
                      fault_aware.servers[s].latencies_sec)
                << "server " << s;
        }
    }
}

TEST(ClusterFailover, CrashMidTraceRedispatchesWork)
{
    const Trace t = skewedFrequencyWorkload(20 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({1, 5 * kMinute, 5 * kMinute});
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 1);
    EXPECT_EQ(r.robustness().restarts, 1);
    EXPECT_EQ(r.unavailabilityUs(), 5 * kMinute);
    // The crash spilled work that was re-dispatched...
    EXPECT_GT(r.retries, 0);
    // ...and arrivals primary-routed to the down server failed over.
    EXPECT_GT(r.failovers, 0);
    expectConservation(r, t);
}

TEST(ClusterFailover, PermanentCrashLeavesFleetDegraded)
{
    const Trace t = skewedFrequencyWorkload(20 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({2, 5 * kMinute, 0});  // never restarts
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 1);
    EXPECT_EQ(r.robustness().restarts, 0);
    EXPECT_GT(r.failovers, 0);
    // The dead server serves nothing after the crash: its share moved
    // to the survivors.
    expectConservation(r, t);
}

TEST(ClusterFailover, AllServersDownFailsRequests)
{
    Trace t("t");
    t.addFunction(makeFunction(0, "f", 100, fromSeconds(1),
                               fromSeconds(1)));
    for (int i = 0; i < 10; ++i)
        t.addInvocation(0, kMinute + i * kSecond);
    ClusterConfig c = config(LoadBalancing::RoundRobin, 2);
    // Both servers die before the arrivals and never return.
    c.faults.crashes.push_back({0, kSecond, 0});
    c.faults.crashes.push_back({1, kSecond, 0});
    c.failover.max_retries = 2;
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.failed_requests, 10);
    EXPECT_EQ(r.warmStarts() + r.coldStarts(), 0);
    // Each of the 10 requests burned its full retry budget.
    EXPECT_EQ(r.retries, 10 * c.failover.max_retries);
    expectConservation(r, t);
}

TEST(ClusterFailover, AdmissionControlShedsOverload)
{
    // One-core servers with long executions: queues grow fast, and a
    // tight high-water mark sheds the excess instead of buffering it.
    Trace t("burst");
    t.addFunction(makeFunction(0, "slow", 100, fromSeconds(30),
                               fromSeconds(1)));
    for (int i = 0; i < 200; ++i)
        t.addInvocation(0, i * 100 * kMillisecond);
    ClusterConfig c = config(LoadBalancing::RoundRobin, 2);
    c.server.cores = 1;
    c.server.queue_timeout_us = 5 * kMinute;
    c.failover.shed_queue_depth = 2;
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_GT(r.shed_requests, 0);
    // Shedding bounds the queues, so everything admitted is served
    // within the (generous) timeout instead of collapsing.
    for (const auto& s : r.servers) {
        EXPECT_EQ(s.dropped_timeout, 0) << "queue collapse not prevented";
        EXPECT_EQ(s.dropped_queue_full, 0);
    }
    expectConservation(r, t);
}

TEST(ClusterFailover, SameSeedReproducesRobustnessCounters)
{
    const Trace t = skewedFrequencyWorkload(20 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({0, 4 * kMinute, 2 * kMinute});
    c.faults.crashes.push_back({3, 11 * kMinute, 3 * kMinute});
    c.faults.spawn_failure_prob = 0.05;
    c.faults.straggler_prob = 0.05;
    c.failover.shed_queue_depth = 64;

    const ClusterResult a = runCluster(t, PolicyKind::GreedyDual, c);
    const ClusterResult b = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    EXPECT_EQ(a.robustness(), b.robustness());
    EXPECT_EQ(a.warmStarts(), b.warmStarts());
    EXPECT_EQ(a.coldStarts(), b.coldStarts());
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t s = 0; s < a.servers.size(); ++s) {
        EXPECT_EQ(a.servers[s].latencies_sec, b.servers[s].latencies_sec)
            << "server " << s;
    }
}

TEST(ClusterFailover, TtlVersusGreedyDualBothSurviveCrashes)
{
    const Trace t = skewedFrequencyWorkload(20 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({1, 5 * kMinute, 5 * kMinute});
    for (PolicyKind kind : {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
        const ClusterResult r = runCluster(t, kind, c);
        expectConservation(r, t);
        EXPECT_EQ(r.robustness().crashes, 1);
    }
}

// --- Restart-boundary edges ----------------------------------------------

TEST(ClusterFailover, CrashExactlyAtTheRestartBoundary)
{
    // The second crash lands on the precise instant the first restart
    // completes: the server must come up, immediately go down again,
    // and both windows must be charged — with no invocation lost.
    const Trace t = skewedFrequencyWorkload(30 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({1, 5 * kMinute, 5 * kMinute});
    c.faults.crashes.push_back({1, 10 * kMinute, 5 * kMinute});
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 2);
    EXPECT_EQ(r.robustness().restarts, 2);
    // The two abutting windows stack into 10 minutes of downtime.
    EXPECT_EQ(r.unavailabilityUs(), 10 * kMinute);
    expectConservation(r, t);
}

TEST(ClusterFailover, BackToBackCrashWindowsOnDistinctServers)
{
    // Server 1's outage hands its traffic to server 2 — which itself
    // dies the moment server 1 comes back. Failover must chase the
    // moving target without double-counting or losing requests.
    const Trace t = skewedFrequencyWorkload(30 * kMinute);
    ClusterConfig c = config();
    c.faults.crashes.push_back({1, 5 * kMinute, 5 * kMinute});
    c.faults.crashes.push_back({2, 10 * kMinute, 5 * kMinute});
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 2);
    EXPECT_EQ(r.robustness().restarts, 2);
    EXPECT_EQ(r.unavailabilityUs(), 10 * kMinute);
    EXPECT_GT(r.failovers, 0);
    expectConservation(r, t);
}

TEST(ClusterFailover, RepeatedCrashesOfOneServerConserveRequests)
{
    // A crash-looping server: four short windows in one run. Every
    // window must recover cleanly (restart counters in lockstep) and
    // the fleet-wide ledger must still balance.
    const Trace t = skewedFrequencyWorkload(30 * kMinute);
    ClusterConfig c = config();
    for (int i = 0; i < 4; ++i)
        c.faults.crashes.push_back(
            {0, (4 + 6 * i) * kMinute, 2 * kMinute});
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 4);
    EXPECT_EQ(r.robustness().restarts, 4);
    EXPECT_EQ(r.unavailabilityUs(), 4 * 2 * kMinute);
    expectConservation(r, t);
}

TEST(ClusterFailover, HalfOpenProbeFailsAtCrashRestartBoundary)
{
    // A spawn-failure storm on a lone server cycles its breaker:
    // open -> (cool-down) -> half-open -> failed probe -> open again.
    // A crash window is placed so its restart boundary lands exactly on
    // an arrival timestamp, exercising the same-timestamp FIFO path:
    // the arrival delivers first (server still down, so it retries),
    // then the restart, and the later retry is the half-open probe that
    // fails at a settle point. The breaker must keep its transitions in
    // lockstep (closes <= opens <= closes + 1) under the auditor.
    Trace t("storm");
    t.addFunction(makeFunction(0, "f", 100, fromSeconds(1),
                               fromSeconds(1)));
    for (int i = 0; i <= 60; ++i)
        t.addInvocation(0, i * kSecond);  // one lands exactly at 30 s
    ClusterConfig c = config(LoadBalancing::RoundRobin, 1);
    c.faults.spawn_failure_prob = 1.0;  // every probe fails
    c.faults.crashes.push_back({0, 20 * kSecond, 10 * kSecond});
    c.failover.breaker.failure_threshold = 3;
    c.failover.breaker.open_duration_us = 5 * kSecond;
    Auditor audit;
    c.server.audit = &audit;
    const ClusterResult r = runCluster(t, PolicyKind::GreedyDual, c);

    EXPECT_EQ(r.robustness().crashes, 1);
    EXPECT_EQ(r.robustness().restarts, 1);
    // The breaker opened, probed while half-open, and the failing
    // probes re-opened it — repeatedly, since the storm never ends.
    EXPECT_GE(r.breaker_opens, 2);
    EXPECT_GE(r.breaker_probes, 1);
    EXPECT_LE(r.breaker_closes, r.breaker_opens);
    // Nothing ever spawns, so nothing is served...
    EXPECT_EQ(r.warmStarts() + r.coldStarts(), 0);
    // ...yet every request still resolves exactly once.
    expectConservation(r, t);
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

TEST(ClusterFailover, ConfigValidationRejectsBadValues)
{
    const Trace t = skewedFrequencyWorkload(kMinute);
    {
        ClusterConfig c = config();
        c.num_servers = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.shards = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.faults.crashes.push_back({9, kMinute, 0});  // only 4 servers
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.faults.spawn_failure_prob = 2.0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.failover.max_retries = -1;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.failover.base_backoff_us = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.server.cores = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.server.queue_capacity = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.server.queue_timeout_us = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        // A shed mark deeper than the queue could never trigger.
        ClusterConfig c = config();
        c.failover.shed_queue_depth = c.server.queue_capacity + 1;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.failover.backoff_jitter_frac = 1.5;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.failover.retry_budget.ratio = -0.1;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.failover.breaker.failure_threshold = 3;
        c.failover.breaker.open_duration_us = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.server.overload.admission.enabled = true;
        c.server.overload.admission.target_delay_us = 0;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
    {
        ClusterConfig c = config();
        c.server.overload.brownout.enabled = true;
        c.server.overload.brownout.min_duration_us = -1;
        EXPECT_THROW(runCluster(t, PolicyKind::Ttl, c),
                     std::invalid_argument);
    }
}

}  // namespace
}  // namespace faascache
