// Differential determinism test for the unified event engine
// (src/engine/): every layer that schedules through EventCore — the
// trace-driven Simulator, the platform Server/Cluster, and the elastic
// provisioning loop — must produce bit-identical results when the same
// seeded workload is replayed twice. This is the contract that makes
// golden fixtures, --jobs invariance, and checkpoint byte-identity
// possible; any hidden ordering dependence (map iteration, pointer
// hashing, timestamp ties broken by allocation order) shows up here as
// a flaky mismatch.
#include <gtest/gtest.h>

#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/experiment.h"
#include "provisioning/elastic_simulation.h"
#include "sim/simulator.h"
#include "trace/azure_model.h"
#include "util/audit.h"

namespace faascache {
namespace {

/** A seeded Azure-model workload with enough churn to exercise
 *  evictions, queueing, and timestamp ties. */
const Trace&
seededWorkload()
{
    static const Trace kTrace = [] {
        AzureModelConfig config;
        config.seed = 41;
        config.num_functions = 60;
        config.duration_us = kHour;
        config.iat_median_sec = 20.0;
        config.max_rate_per_sec = 2.0;
        config.warm_median_ms = 150.0;
        config.mem_median_mb = 128.0;
        config.mem_sigma = 0.7;
        config.mem_min_mb = 64;
        config.mem_max_mb = 512;
        config.name = "engine-differential";
        return generateAzureTrace(config);
    }();
    return kTrace;
}

void
expectSameSimResult(const SimResult& a, const SimResult& b)
{
    EXPECT_EQ(a.policy_name, b.policy_name);
    EXPECT_EQ(a.memory_mb, b.memory_mb);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.prewarms, b.prewarms);
    EXPECT_EQ(a.eviction_rounds, b.eviction_rounds);
    EXPECT_EQ(a.background_reclaims, b.background_reclaims);
    EXPECT_EQ(a.actual_exec_us, b.actual_exec_us);
    EXPECT_EQ(a.baseline_exec_us, b.baseline_exec_us);
    EXPECT_EQ(a.per_function, b.per_function);
    ASSERT_EQ(a.memory_usage.size(), b.memory_usage.size());
    for (std::size_t i = 0; i < a.memory_usage.size(); ++i) {
        EXPECT_EQ(a.memory_usage[i].time_us, b.memory_usage[i].time_us);
        EXPECT_EQ(a.memory_usage[i].used_mb, b.memory_usage[i].used_mb);
    }
}

void
expectSamePlatformResult(const PlatformResult& a, const PlatformResult& b)
{
    EXPECT_EQ(a.policy_name, b.policy_name);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.dropped_queue_full, b.dropped_queue_full);
    EXPECT_EQ(a.dropped_timeout, b.dropped_timeout);
    EXPECT_EQ(a.dropped_oversize, b.dropped_oversize);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.prewarms, b.prewarms);
    EXPECT_EQ(a.robustness.crashes, b.robustness.crashes);
    EXPECT_EQ(a.robustness.restarts, b.robustness.restarts);
    EXPECT_EQ(a.robustness.crash_aborted, b.robustness.crash_aborted);
    EXPECT_EQ(a.robustness.crash_flushed_containers,
              b.robustness.crash_flushed_containers);
    EXPECT_EQ(a.robustness.dropped_unavailable,
              b.robustness.dropped_unavailable);
    EXPECT_EQ(a.robustness.redispatch_cold_starts,
              b.robustness.redispatch_cold_starts);
    EXPECT_EQ(a.robustness.downtime_us, b.robustness.downtime_us);
    ASSERT_EQ(a.catalog_size, b.catalog_size);
    for (FunctionId i = 0; i < a.catalog_size; ++i)
        EXPECT_EQ(a.outcomeOf(i), b.outcomeOf(i));
    // Bit-exact latency streams, completion order included.
    ASSERT_EQ(a.latencies_sec.size(), b.latencies_sec.size());
    for (std::size_t i = 0; i < a.latencies_sec.size(); ++i)
        EXPECT_EQ(a.latencies_sec[i], b.latencies_sec[i]);
    for (FunctionId i = 0; i < a.catalog_size; ++i)
        EXPECT_EQ(a.latencySumOf(i), b.latencySumOf(i));
}

TEST(EngineDifferential, SimulatorReplaysBitExact)
{
    SimulatorConfig config;
    config.memory_mb = 1500.0;
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl}) {
        const SimResult a =
            simulateTrace(seededWorkload(), makePolicy(kind), config);
        const SimResult b =
            simulateTrace(seededWorkload(), makePolicy(kind), config);
        expectSameSimResult(a, b);
    }
}

TEST(EngineDifferential, ServerReplaysBitExact)
{
    // Both replays run under the runtime invariant auditor (ISSUE 8):
    // bit-identity and semantic legality are checked together.
    Auditor audit;
    ServerConfig config;
    config.cores = 2;
    config.memory_mb = 900.0;
    config.audit = &audit;
    const PlatformResult a = runPlatform(
        seededWorkload(), PolicyKind::GreedyDual, config);
    const PlatformResult b = runPlatform(
        seededWorkload(), PolicyKind::GreedyDual, config);
    expectSamePlatformResult(a, b);
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

TEST(EngineDifferential, FaultedClusterReplaysBitExact)
{
    // Crashes and restarts ride the engine's Failure lane; seeded
    // stochastic faults exercise the same-timestamp tie-breaks that
    // used to be a hand-rolled deferral hack. The auditor watches both
    // replays end to end.
    Auditor audit;
    ClusterConfig config;
    config.num_servers = 3;
    config.server.cores = 2;
    config.server.memory_mb = 700.0;
    config.server.audit = &audit;
    config.faults.crashes.push_back({1, 10 * kMinute, 5 * kMinute});
    config.faults.spawn_failure_prob = 0.05;
    config.faults.straggler_prob = 0.05;
    config.faults.seed = 99;

    const ClusterResult a =
        runCluster(seededWorkload(), PolicyKind::GreedyDual, config);
    const ClusterResult b =
        runCluster(seededWorkload(), PolicyKind::GreedyDual, config);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t i = 0; i < a.servers.size(); ++i)
        expectSamePlatformResult(a.servers[i], b.servers[i]);
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

TEST(EngineDifferential, ElasticSimulationReplaysBitExact)
{
    ControllerConfig controller;
    controller.target_miss_speed = 1.0;
    controller.min_size_mb = 512;
    controller.max_size_mb = 8 * 1024;
    ElasticConfig elastic;
    elastic.initial_size_mb = 2000;

    const ElasticResult a = runElasticSimulation(
        seededWorkload(), makePolicy(PolicyKind::GreedyDual), controller,
        elastic);
    const ElasticResult b = runElasticSimulation(
        seededWorkload(), makePolicy(PolicyKind::GreedyDual), controller,
        elastic);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].time_us, b.timeline[i].time_us);
        EXPECT_EQ(a.timeline[i].cache_size_mb,
                  b.timeline[i].cache_size_mb);
        EXPECT_EQ(a.timeline[i].arrival_rate, b.timeline[i].arrival_rate);
        EXPECT_EQ(a.timeline[i].miss_speed, b.timeline[i].miss_speed);
        EXPECT_EQ(a.timeline[i].smoothed_arrival,
                  b.timeline[i].smoothed_arrival);
    }
    expectSameSimResult(a.sim, b.sim);
}

TEST(EngineDifferential, SweepReplaysBitExactAcrossWorkerCounts)
{
    // The same grid through 1 worker and 4 workers must merge to the
    // same submission-order results — the --jobs invariance the benches
    // rely on.
    std::vector<PlatformCell> cells;
    for (double memory_mb : {600.0, 1200.0}) {
        PlatformCell cell;
        cell.trace = &seededWorkload();
        cell.server.cores = 2;
        cell.server.memory_mb = memory_mb;
        cells.push_back(cell);
    }
    const std::vector<PlatformResult> serial = runPlatformSweep(cells, 1);
    const std::vector<PlatformResult> parallel = runPlatformSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSamePlatformResult(serial[i], parallel[i]);
}

}  // namespace
}  // namespace faascache
