// Differential battery for the streaming trace substrate (DESIGN.md
// §4h): every consumer — keep-alive simulator, platform server,
// fault-aware cluster, elastic controller, sweep runner — must produce
// byte-identical results whether the workload arrives as a
// materialized Trace, a TraceSource cursor, a memory-mapped
// FtraceSource, or an on-the-fly GeneratedSource, across policies,
// fault plans, balancing modes, backends, and --jobs counts.
//
// Byte identity is asserted on the checkpoint payload codecs (hexfloat
// doubles), so a mismatch is a real divergence, not formatting noise.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/experiment_checkpoint.h"
#include "platform/fault_injection.h"
#include "platform/server.h"
#include "provisioning/elastic_simulation.h"
#include "provisioning/elastic_sweep.h"
#include "sim/simulator.h"
#include "sim/sweep_checkpoint.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/ftrace_format.h"
#include "trace/function_spec.h"
#include "trace/generated_source.h"
#include "trace/invocation_source.h"
#include "trace/patterns.h"
#include "trace/trace.h"
#include "util/audit.h"

#include "cluster_split_oracle.h"

namespace faascache {
namespace {

/** Compile a trace to a temp .ftrace file; removed on destruction.
 *  Small chunks force multi-chunk streaming in every test. */
class CompiledTrace
{
  public:
    CompiledTrace(const Trace& trace, const std::string& tag,
                  std::uint32_t chunk_capacity = 256)
        : path_(std::string(::testing::TempDir()) +
                "faascache_streamdiff_" + tag + ".ftrace")
    {
        std::remove(path_.c_str());
        TraceSource source(trace);
        writeFtraceFile(path_, source, chunk_capacity);
    }
    ~CompiledTrace() { std::remove(path_.c_str()); }

    FtraceSource open() const { return FtraceSource(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

AzureModelConfig
workloadConfig()
{
    AzureModelConfig config;
    config.seed = 31;
    config.num_functions = 80;
    config.duration_us = 30 * kMinute;
    config.iat_median_sec = 25.0;
    return config;
}

const Trace&
azureWorkload()
{
    static const Trace kTrace = generateAzureTrace(workloadConfig());
    return kTrace;
}

FaultPlan
clusterFaults()
{
    FaultPlan plan;
    plan.spawn_failure_prob = 0.1;
    plan.spawn_retry_delay_us = 150 * kMillisecond;
    plan.straggler_prob = 0.15;
    plan.straggler_multiplier = 2.5;
    plan.crashes.push_back(CrashEvent{0, 5 * kMinute, 2 * kMinute});
    plan.crashes.push_back(CrashEvent{2, 12 * kMinute, 90 * kSecond});
    plan.oom_kills.push_back(OomKillEvent{1, 8 * kMinute});
    return plan;
}

// --- Simulator: all four source shapes agree for every policy. ------

TEST(StreamingDifferential, SimulatorAgreesAcrossAllSourceShapes)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "sim");

    for (PolicyKind kind : allPolicyKinds()) {
        for (const MemMb memory : {2'000.0, 6'000.0}) {
            SimulatorConfig config;
            config.memory_mb = memory;

            const std::string oracle = encodeCheckpointPayload(
                "cell",
                simulateTrace(trace, makePolicy(kind, {}), config));
            const std::string label = policyKindName(kind) + "/" +
                std::to_string(static_cast<int>(memory)) + "MB";

            TraceSource cursor(trace);
            EXPECT_EQ(encodeCheckpointPayload(
                          "cell", simulateSource(
                                      cursor, makePolicy(kind, {}),
                                      config)),
                      oracle)
                << "TraceSource diverged: " << label;

            FtraceSource mapped = compiled.open();
            EXPECT_EQ(encodeCheckpointPayload(
                          "cell", simulateSource(
                                      mapped, makePolicy(kind, {}),
                                      config)),
                      oracle)
                << "FtraceSource diverged: " << label;

            const auto generated = makeAzureSource(workloadConfig());
            EXPECT_EQ(encodeCheckpointPayload(
                          "cell", simulateSource(
                                      *generated, makePolicy(kind, {}),
                                      config)),
                      oracle)
                << "GeneratedSource diverged: " << label;
        }
    }
}

// --- Server: streamed run under fault plans, both backends. ---------

TEST(StreamingDifferential, ServerStreamedRunAgreesUnderFaults)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "server");

    FaultPlan plan;
    plan.spawn_failure_prob = 0.12;
    plan.spawn_retry_delay_us = 100 * kMillisecond;
    plan.straggler_prob = 0.1;
    plan.straggler_multiplier = 2.0;
    plan.crashes.push_back(CrashEvent{0, 6 * kMinute, 90 * kSecond});
    plan.crashes.push_back(CrashEvent{0, 20 * kMinute, 60 * kSecond});

    for (PolicyKind kind :
         {PolicyKind::GreedyDual, PolicyKind::Ttl, PolicyKind::Hist}) {
        for (const bool faulty : {false, true}) {
            ServerConfig config;
            config.cores = 4;
            config.memory_mb = 3'000.0;
            Auditor audit;
            config.audit = &audit;

            auto runWith = [&](auto&& workload,
                               PlatformBackend backend) {
                ServerConfig c = config;
                c.platform_backend = backend;
                Server server(makePolicy(kind, {}), c);
                std::unique_ptr<FaultInjector> injector;
                if (faulty) {
                    injector = std::make_unique<FaultInjector>(plan, 0);
                    server.setFaultInjector(injector.get());
                }
                return encodePlatformCheckpointPayload(
                    "cell", server.run(workload));
            };
            const std::string label = policyKindName(kind) +
                (faulty ? "/faults" : "/clean");

            const std::string oracle =
                runWith(trace, PlatformBackend::Reference);
            EXPECT_EQ(runWith(trace, PlatformBackend::Dense), oracle)
                << "Dense(Trace) diverged: " << label;

            FtraceSource mapped = compiled.open();
            EXPECT_EQ(runWith(mapped, PlatformBackend::Dense), oracle)
                << "Dense(FtraceSource) diverged: " << label;

            FtraceSource mapped_ref = compiled.open();
            EXPECT_EQ(runWith(mapped_ref, PlatformBackend::Reference),
                      oracle)
                << "Reference(FtraceSource) diverged: " << label;
            EXPECT_EQ(audit.violationCount(), 0)
                << label << ": " << audit.report();
        }
    }
}

// --- Cluster: whole-run + armed windows, all balancers. ------------

TEST(StreamingDifferential, ClusterAgreesAcrossSourcesAndBalancers)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "cluster");

    for (const LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        for (const bool faulty : {false, true}) {
            ClusterConfig config;
            config.num_servers = 3;
            config.balancing = balancing;
            config.seed = 77;
            config.server.cores = 2;
            config.server.memory_mb = 1'500.0;
            if (faulty) {
                config.faults = clusterFaults();
                config.failover.shed_queue_depth = 24;
                config.failover.retry_budget.ratio = 0.5;
                config.failover.retry_budget.burst = 16.0;
                config.failover.breaker.failure_threshold = 8;
                config.failover.breaker.open_duration_us = 10 * kSecond;
            }
            const std::string label =
                std::to_string(static_cast<int>(balancing)) +
                (faulty ? "/faults" : "/clean");

            ClusterConfig reference = config;
            reference.server.platform_backend =
                PlatformBackend::Reference;
            const std::string oracle = encodeClusterCheckpointPayload(
                "cell",
                runCluster(trace, PolicyKind::GreedyDual, reference));

            EXPECT_EQ(
                encodeClusterCheckpointPayload(
                    "cell",
                    runCluster(trace, PolicyKind::GreedyDual, config)),
                oracle)
                << "Dense(Trace) cluster diverged: " << label;

            // Each shard streams its own FtraceSource over the file.
            ShardedWorkload mapped;
            mapped.make_full = [&compiled] {
                return std::make_unique<FtraceSource>(compiled.path());
            };
            EXPECT_EQ(
                encodeClusterCheckpointPayload(
                    "cell",
                    runCluster(mapped, PolicyKind::GreedyDual, config)),
                oracle)
                << "Dense(FtraceSource) cluster diverged: " << label;

            EXPECT_EQ(
                encodeClusterCheckpointPayload(
                    "cell", runCluster(mapped, PolicyKind::GreedyDual,
                                       reference)),
                oracle)
                << "Reference(FtraceSource) cluster diverged: "
                << label;
        }
    }
}

// --- Cluster: sharded execution is shard-count invariant, fed by
//     per-shard cursors over ONE shared .ftrace mapping. -------------

TEST(StreamingDifferential, ClusterShardCountInvariance)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "shards");
    // One mapping for the whole test: every shard of every run below
    // streams through its own cursor over this region (DESIGN.md §4i).
    const std::shared_ptr<FtraceRegion> region =
        FtraceRegion::open(compiled.path());
    ShardedWorkload workload;
    workload.make_full = [&region] { return region->makeCursor(); };

    for (const LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        for (const bool faulty : {false, true}) {
            ClusterConfig config;
            config.num_servers = 3;
            config.balancing = balancing;
            config.seed = 77;
            config.server.cores = 2;
            config.server.memory_mb = 1'500.0;
            if (faulty) {
                config.faults = clusterFaults();
                config.failover.shed_queue_depth = 24;
                config.failover.retry_budget.ratio = 0.5;
                config.failover.retry_budget.burst = 16.0;
                config.failover.breaker.failure_threshold = 8;
                config.failover.breaker.open_duration_us = 10 * kSecond;
            }
            const std::string label =
                std::to_string(static_cast<int>(balancing)) +
                (faulty ? "/faults" : "/clean");

            ClusterConfig sharded = config;
            sharded.shards = 1;
            const std::string oracle = encodeClusterCheckpointPayload(
                "cell",
                runCluster(workload, PolicyKind::GreedyDual, sharded));

            if (!faulty) {
                // A fault-free run must also match the
                // independent-server split oracle byte-for-byte.
                EXPECT_EQ(
                    encodeClusterCheckpointPayload(
                        "cell",
                        runClusterSplitOracle(
                            trace, PolicyKind::GreedyDual, config)),
                    oracle)
                    << "sharded split diverged from the split oracle: "
                    << label;
            }

            // 8 shards on a 3-server fleet also covers the clamp to
            // one-shard-per-server.
            for (const std::size_t shards : {2u, 4u, 8u}) {
                sharded.shards = shards;
                EXPECT_EQ(
                    encodeClusterCheckpointPayload(
                        "cell", runCluster(workload,
                                           PolicyKind::GreedyDual,
                                           sharded)),
                    oracle)
                    << "shards=" << shards << " diverged: " << label;
            }
        }
    }
}

// --- Elastic: streamed source drives the online controller. ---------

TEST(StreamingDifferential, ElasticSimulationAgreesAcrossSources)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "elastic");

    ElasticConfig config;
    config.control_period_us = 5 * kMinute;
    config.initial_size_mb = 4'000.0;
    config.curve_refresh_period_us = 10 * kMinute;
    const ControllerConfig controller;

    const std::string oracle = encodeElasticCheckpointPayload(
        "cell",
        runElasticSimulation(
            trace, makePolicy(PolicyKind::GreedyDual, {}), controller,
            config));

    TraceSource cursor(trace);
    EXPECT_EQ(
        encodeElasticCheckpointPayload(
            "cell", runElasticSimulation(
                        cursor, makePolicy(PolicyKind::GreedyDual, {}),
                        controller, config)),
        oracle)
        << "TraceSource elastic diverged";

    FtraceSource mapped = compiled.open();
    EXPECT_EQ(
        encodeElasticCheckpointPayload(
            "cell", runElasticSimulation(
                        mapped, makePolicy(PolicyKind::GreedyDual, {}),
                        controller, config)),
        oracle)
        << "FtraceSource elastic diverged";
}

// --- Sweep: streamed cells are --jobs invariant. --------------------

TEST(StreamingDifferential, StreamedSweepIsJobsInvariant)
{
    const Trace& trace = azureWorkload();
    const CompiledTrace compiled(trace, "sweep");

    auto makeCells = [&]() {
        std::vector<SweepCell> cells;
        for (PolicyKind kind :
             {PolicyKind::GreedyDual, PolicyKind::Ttl,
              PolicyKind::Lru}) {
            for (const MemMb memory : {1'500.0, 3'000.0, 6'000.0}) {
                cells.push_back(makeStreamCell(
                    [&compiled]() {
                        return std::make_unique<FtraceSource>(
                            compiled.path());
                    },
                    kind, memory));
            }
        }
        return cells;
    };

    const std::vector<SimResult> serial = runSweep(makeCells(), 1);
    const std::vector<SimResult> parallel = runSweep(makeCells(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(encodeCheckpointPayload("cell", parallel[i]),
                  encodeCheckpointPayload("cell", serial[i]))
            << "cell " << i << " differs between --jobs 1 and 4";

    // ... and streamed cells agree with the materialized oracle cells.
    std::vector<SweepCell> oracle_cells;
    for (PolicyKind kind :
         {PolicyKind::GreedyDual, PolicyKind::Ttl, PolicyKind::Lru}) {
        for (const MemMb memory : {1'500.0, 3'000.0, 6'000.0})
            oracle_cells.push_back(makeCell(trace, kind, memory));
    }
    const std::vector<SimResult> oracle = runSweep(oracle_cells, 2);
    for (std::size_t i = 0; i < oracle.size(); ++i)
        EXPECT_EQ(encodeCheckpointPayload("cell", serial[i]),
                  encodeCheckpointPayload("cell", oracle[i]))
            << "streamed cell " << i
            << " diverged from the materialized oracle";
}

}  // namespace
}  // namespace faascache
