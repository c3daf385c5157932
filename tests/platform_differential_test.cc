// Differential battery for the platform hot-path rebuild (DESIGN.md
// §4f): PlatformBackend::Dense (arena request queue, arrival-cursor
// merge, batched setup pushes) must be byte-identical to
// PlatformBackend::Reference (the original deque/heap path, retained
// as the oracle) for every policy, memory pressure, fault plan, and
// overload configuration — standalone servers, fault-aware clusters,
// sweeps at any --jobs, and checkpoint kill+resume round-trips.
//
// Byte identity is asserted on the checkpoint payload encodings
// (platform/experiment_checkpoint.h), whose hexfloat doubles make the
// comparison bit-exact; a payload mismatch therefore proves a real
// divergence in results, not a formatting artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/experiment.h"
#include "platform/experiment_checkpoint.h"
#include "platform/fault_injection.h"
#include "platform/server.h"
#include "trace/function_spec.h"
#include "trace/patterns.h"
#include "trace/trace.h"
#include "util/audit.h"
#include "util/rng.h"

namespace faascache {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) +
                "faascache_platform_diff_" + tag + ".ckpt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Mixed-size catalog under Poisson load, tuned so a sub-1-GB server
 * sees warm hits, demand evictions, queue waits, timeouts, and (with
 * the tighter configs below) queue-full drops — every drain branch.
 */
const Trace&
pressureTrace()
{
    static const Trace kTrace = [] {
        std::vector<FunctionSpec> specs;
        std::vector<TimeUs> iats;
        for (FunctionId id = 0; id < 24; ++id) {
            const MemMb mem = 64.0 + static_cast<double>(id % 6) * 96.0;
            specs.push_back(makeFunction(
                id, "fn" + std::to_string(id), mem,
                fromMillis(80 + 40 * (id % 5)),
                fromMillis(400 + 150 * (id % 4))));
            iats.push_back(fromSeconds(1.5 + 0.5 * (id % 7)));
        }
        return makePoissonTrace(specs, iats, 4 * kMinute, 0xD1FFu,
                                "diff-pressure");
    }();
    return kTrace;
}

/**
 * Azure-replay shape: every function fires on shared minute
 * boundaries, so arrivals pile onto identical timestamps — the
 * same-instant batch-admission path of the dense cursor merge.
 */
const Trace&
minuteBucketTrace()
{
    static const Trace kTrace = [] {
        Trace t("diff-minute-buckets");
        for (FunctionId id = 0; id < 40; ++id) {
            t.addFunction(makeFunction(
                id, "mb" + std::to_string(id),
                96.0 + static_cast<double>(id % 4) * 64.0,
                fromMillis(120), fromMillis(600)));
        }
        for (TimeUs minute = 0; minute <= 5; ++minute) {
            for (FunctionId id = 0; id < 40; ++id)
                t.addInvocation(id, minute * kMinute);
        }
        return t;
    }();
    return kTrace;
}

PlatformResult
runOne(const Trace& trace, PolicyKind kind, ServerConfig server,
       const PolicyConfig& policy, const FaultPlan* plan)
{
    Server s(makePolicy(kind, policy), server);
    std::unique_ptr<FaultInjector> injector;
    if (plan != nullptr) {
        injector = std::make_unique<FaultInjector>(*plan, 0);
        s.setFaultInjector(injector.get());
    }
    return s.run(trace);
}

/**
 * Assert byte-identical standalone results across the two backends.
 * Both runs execute under the runtime invariant auditor (ISSUE 8), so
 * every differential case doubles as a semantic-invariant check.
 */
void
expectBackendsAgree(const Trace& trace, PolicyKind kind,
                    ServerConfig server, const PolicyConfig& policy,
                    const FaultPlan* plan, const std::string& label)
{
    Auditor audit;
    server.audit = &audit;
    server.platform_backend = PlatformBackend::Dense;
    const std::string dense = encodePlatformCheckpointPayload(
        "cell", runOne(trace, kind, server, policy, plan));
    server.platform_backend = PlatformBackend::Reference;
    const std::string reference = encodePlatformCheckpointPayload(
        "cell", runOne(trace, kind, server, policy, plan));
    EXPECT_EQ(dense, reference) << "backends diverged: " << label;
    EXPECT_EQ(audit.violationCount(), 0)
        << label << ": " << audit.report();
}

OverloadConfig
fullOverload()
{
    OverloadConfig overload;
    overload.admission.enabled = true;
    overload.admission.target_delay_us = 300 * kMillisecond;
    overload.admission.interval_us = 5 * kSecond;
    overload.brownout.enabled = true;
    overload.brownout.min_duration_us = 5 * kSecond;
    return overload;
}

FaultPlan
stochasticFaults()
{
    FaultPlan plan;
    plan.spawn_failure_prob = 0.15;
    plan.spawn_retry_delay_us = 200 * kMillisecond;
    plan.straggler_prob = 0.2;
    plan.straggler_multiplier = 3.0;
    plan.reclaim_stall_prob = 0.1;
    plan.reclaim_stall_us = 300 * kMillisecond;
    plan.crashes.push_back(CrashEvent{0, 70 * kSecond, 20 * kSecond});
    plan.crashes.push_back(CrashEvent{0, 150 * kSecond, 15 * kSecond});
    return plan;
}

// The acceptance grid: every policy of the paper's evaluation, with
// the overload subsystem off and fully on, under memory pressure.
TEST(PlatformDifferential, AllPoliciesTimesOverloadAgree)
{
    for (PolicyKind kind : allPolicyKinds()) {
        for (bool overload_on : {false, true}) {
            ServerConfig server;
            server.cores = 4;
            server.memory_mb = 700.0;
            server.cold_start_cpu_slots = 2;
            if (overload_on)
                server.overload = fullOverload();
            expectBackendsAgree(
                pressureTrace(), kind, server, PolicyConfig{}, nullptr,
                policyKindName(kind) +
                    (overload_on ? "/overload-on" : "/overload-off"));
        }
    }
}

TEST(PlatformDifferential, MinuteBucketBurstsAgree)
{
    for (PolicyKind kind :
         {PolicyKind::GreedyDual, PolicyKind::Ttl, PolicyKind::Hist}) {
        ServerConfig server;
        server.cores = 3;
        server.memory_mb = 600.0;
        server.queue_capacity = 64;
        server.queue_timeout_us = 20 * kSecond;
        expectBackendsAgree(minuteBucketTrace(), kind, server,
                            PolicyConfig{}, nullptr,
                            "minute-buckets/" + policyKindName(kind));
    }
}

TEST(PlatformDifferential, FaultPlansAgree)
{
    const FaultPlan plan = stochasticFaults();
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl}) {
        for (bool overload_on : {false, true}) {
            ServerConfig server;
            server.cores = 4;
            server.memory_mb = 800.0;
            server.cold_start_cpu_slots = 2;
            if (overload_on)
                server.overload = fullOverload();
            expectBackendsAgree(
                pressureTrace(), kind, server, PolicyConfig{}, &plan,
                "faults/" + policyKindName(kind) +
                    (overload_on ? "/overload-on" : "/overload-off"));
        }
    }
}

TEST(PlatformDifferential, EvictionBatchingAgrees)
{
    for (MemMb batch_free_mb : {0.0, 250.0, 1000.0}) {
        PolicyConfig policy;
        policy.greedy_dual.batch_free_mb = batch_free_mb;
        ServerConfig server;
        server.cores = 4;
        server.memory_mb = 600.0;
        expectBackendsAgree(pressureTrace(), PolicyKind::GreedyDual,
                            server, policy, nullptr,
                            "batch_free_mb=" +
                                std::to_string(batch_free_mb));
    }
}

TEST(PlatformDifferential, EmptyAndTinyTracesAgree)
{
    Trace empty("diff-empty");
    empty.addFunction(makeFunction(0, "idle", 128.0, fromMillis(100),
                                   fromMillis(500)));
    Trace single("diff-single");
    single.addFunction(makeFunction(0, "solo", 128.0, fromMillis(100),
                                    fromMillis(500)));
    single.addInvocation(0, 30 * kSecond);
    for (const Trace* trace : {&empty, &single}) {
        expectBackendsAgree(*trace, PolicyKind::GreedyDual,
                            ServerConfig{}, PolicyConfig{}, nullptr,
                            trace->name());
    }
}

// Randomized fuzz over the server-config space: the structured grids
// above pin the branches we know about; this sweep hunts for the ones
// we do not. Deterministic seed, so a failure names a reproducible
// configuration.
TEST(PlatformDifferential, RandomizedConfigFuzz)
{
    Rng rng(0xFA57D1FFULL);
    const auto& kinds = allPolicyKinds();
    for (int round = 0; round < 24; ++round) {
        const PolicyKind kind = kinds[rng.uniformInt(kinds.size())];
        ServerConfig server;
        server.cores = 2 + static_cast<int>(rng.uniformInt(7));
        server.memory_mb =
            400.0 + static_cast<double>(rng.uniformInt(5)) * 400.0;
        server.queue_capacity = 8u << rng.uniformInt(6);
        server.queue_timeout_us =
            (5 + static_cast<TimeUs>(rng.uniformInt(30))) * kSecond;
        server.maintenance_interval_us =
            (2 + static_cast<TimeUs>(rng.uniformInt(12))) * kSecond;
        server.enable_prewarm = rng.uniformInt(2) == 0;
        server.cold_start_cpu_slots =
            1 + static_cast<int>(rng.uniformInt(2));
        if (rng.uniformInt(2) == 0)
            server.overload = fullOverload();

        PolicyConfig policy;
        policy.greedy_dual.batch_free_mb =
            static_cast<double>(rng.uniformInt(3)) * 300.0;

        FaultPlan plan;
        const bool faulty = rng.uniformInt(2) == 0;
        if (faulty) {
            plan.spawn_failure_prob =
                static_cast<double>(rng.uniformInt(30)) / 100.0;
            plan.straggler_prob =
                static_cast<double>(rng.uniformInt(30)) / 100.0;
            plan.reclaim_stall_prob =
                static_cast<double>(rng.uniformInt(20)) / 100.0;
            plan.seed = 0x5EEDFA11ULL + static_cast<std::uint64_t>(round);
            if (rng.uniformInt(2) == 0) {
                plan.crashes.push_back(CrashEvent{
                    0, (30 + rng.uniformInt(120)) * kSecond,
                    rng.uniformInt(30) * kSecond});
            }
        }

        std::ostringstream label;
        label << "fuzz round " << round << ": "
              << policyKindName(kind) << " cores=" << server.cores
              << " mem=" << server.memory_mb
              << " qcap=" << server.queue_capacity
              << " qto=" << server.queue_timeout_us
              << " maint=" << server.maintenance_interval_us
              << " prewarm=" << server.enable_prewarm
              << " coldslots=" << server.cold_start_cpu_slots
              << " overload=" << server.overload.any()
              << " batch=" << policy.greedy_dual.batch_free_mb
              << " faults=" << faulty;
        expectBackendsAgree(pressureTrace(), kind, server, policy,
                            faulty ? &plan : nullptr, label.str());
    }
}

// --------------------------------------------------------------------
// Cluster flavour: the windowed engine drives servers through
// begin/offer/advanceTo/finish, so this also differentially tests the
// incremental API plus the engine's own dispatch cursor.

ClusterConfig
baseClusterConfig()
{
    ClusterConfig config;
    config.num_servers = 3;
    config.server.cores = 3;
    config.server.memory_mb = 600.0;
    config.server.cold_start_cpu_slots = 2;
    config.seed = 99;
    return config;
}

void
expectClusterBackendsAgree(const Trace& trace, PolicyKind kind,
                           ClusterConfig config,
                           const std::string& label)
{
    Auditor audit;
    config.server.audit = &audit;
    config.server.platform_backend = PlatformBackend::Dense;
    const std::string dense = encodeClusterCheckpointPayload(
        "cell", runCluster(trace, kind, config));
    config.server.platform_backend = PlatformBackend::Reference;
    const std::string reference = encodeClusterCheckpointPayload(
        "cell", runCluster(trace, kind, config));
    EXPECT_EQ(dense, reference) << "cluster backends diverged: " << label;
    EXPECT_EQ(audit.violationCount(), 0)
        << label << ": " << audit.report();
}

TEST(ClusterDifferential, SplitAndFaultAwarePathsAgree)
{
    for (LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        // Fault-free: exercises the split path (per-server run()).
        ClusterConfig split = baseClusterConfig();
        split.balancing = balancing;
        expectClusterBackendsAgree(
            pressureTrace(), PolicyKind::GreedyDual, split,
            "split/balancing=" + std::to_string(static_cast<int>(
                                     balancing)));

        // Crashing fleet with full failover machinery: exercises the
        // windowed front end and its dispatch cursor.
        ClusterConfig faulty = split;
        faulty.faults.spawn_failure_prob = 0.1;
        faulty.faults.crashes.push_back(
            CrashEvent{0, 60 * kSecond, 20 * kSecond});
        faulty.faults.crashes.push_back(
            CrashEvent{2, 120 * kSecond, 15 * kSecond});
        faulty.failover.max_retries = 3;
        faulty.failover.base_backoff_us = 100 * kMillisecond;
        faulty.failover.shed_queue_depth = 32;
        faulty.failover.backoff_jitter_frac = 0.2;
        faulty.failover.retry_budget.ratio = 0.5;
        faulty.failover.breaker.failure_threshold = 4;
        expectClusterBackendsAgree(
            pressureTrace(), PolicyKind::GreedyDual, faulty,
            "fault-aware/balancing=" + std::to_string(static_cast<int>(
                                           balancing)));
    }
}

TEST(ClusterDifferential, OverloadedFleetAgrees)
{
    ClusterConfig config = baseClusterConfig();
    config.server.overload = fullOverload();
    config.faults.crashes.push_back(
        CrashEvent{1, 90 * kSecond, 25 * kSecond});
    config.failover.max_retries = 2;
    config.failover.retry_budget.ratio = 0.3;
    config.failover.breaker.failure_threshold = 3;
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl})
        expectClusterBackendsAgree(pressureTrace(), kind, config,
                                   "overloaded/" + policyKindName(kind));
}

// --------------------------------------------------------------------
// Sweep determinism and crash safety.

std::vector<PlatformCell>
mixedBackendGrid()
{
    std::vector<PlatformCell> cells;
    for (PlatformBackend backend :
         {PlatformBackend::Dense, PlatformBackend::Reference}) {
        for (double memory_mb : {500.0, 900.0}) {
            PlatformCell cell;
            cell.trace = &pressureTrace();
            cell.kind = PolicyKind::GreedyDual;
            cell.server.cores = 4;
            cell.server.memory_mb = memory_mb;
            cell.server.platform_backend = backend;
            cell.key = std::string(platformBackendName(backend)) + "/" +
                std::to_string(static_cast<int>(memory_mb));
            cells.push_back(cell);
        }
    }
    return cells;
}

std::vector<std::string>
sweepPayloads(const PlatformSweepReport& report)
{
    std::vector<std::string> payloads;
    for (const auto& cell : report.cells) {
        payloads.push_back(
            encodePlatformCheckpointPayload("cell", cell.result));
    }
    return payloads;
}

TEST(PlatformDifferential, SweepIsJobsInvariantAcrossBackends)
{
    const std::vector<PlatformCell> cells = mixedBackendGrid();
    const PlatformSweepReport serial = runPlatformSweepReport(cells, 1);
    const PlatformSweepReport parallel =
        runPlatformSweepReport(cells, 4);
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());
    const std::vector<std::string> a = sweepPayloads(serial);
    const std::vector<std::string> b = sweepPayloads(parallel);
    ASSERT_EQ(a, b) << "--jobs changed sweep output";
    // Dense cells (first half) must equal their Reference twins.
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0], a[2]);
    EXPECT_EQ(a[1], a[3]);
}

/** Truncate `path` to its header plus the first `cells` journaled
 *  records — a faithful replica of a SIGKILL mid-sweep. */
void
truncateJournal(const std::string& path, std::size_t cells)
{
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream kept;
    std::size_t seen = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cell ", 0) == 0 && ++seen > cells)
            break;
        kept << line << '\n';
    }
    in.close();
    ASSERT_GE(seen, cells) << "journal held fewer records than expected";
    std::ofstream out(path, std::ios::trunc);
    out << kept.str();
}

TEST(PlatformDifferential, CheckpointKillResumeRoundTrips)
{
    const std::vector<PlatformCell> cells = mixedBackendGrid();
    TempFile full("full");
    PlatformSweepOptions options;
    options.checkpoint_path = full.path();
    const PlatformSweepReport uninterrupted =
        runPlatformSweepReport(cells, 1, options);
    ASSERT_TRUE(uninterrupted.allOk());

    // "Kill" after two journaled cells, then resume.
    truncateJournal(full.path(), 2);
    options.resume = true;
    const PlatformSweepReport resumed =
        runPlatformSweepReport(cells, 1, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, 2u);
    EXPECT_EQ(sweepPayloads(uninterrupted), sweepPayloads(resumed));
}

TEST(ClusterDifferential, CheckpointKillResumeRoundTrips)
{
    std::vector<ClusterCell> cells;
    for (PlatformBackend backend :
         {PlatformBackend::Dense, PlatformBackend::Reference}) {
        ClusterCell cell;
        cell.trace = &pressureTrace();
        cell.kind = PolicyKind::GreedyDual;
        cell.config = baseClusterConfig();
        cell.config.server.platform_backend = backend;
        cell.config.faults.crashes.push_back(
            CrashEvent{0, 60 * kSecond, 20 * kSecond});
        cell.config.failover.max_retries = 2;
        cell.key = platformBackendName(backend);
        cells.push_back(cell);
    }

    TempFile full("cluster");
    PlatformSweepOptions options;
    options.checkpoint_path = full.path();
    const ClusterSweepReport uninterrupted =
        runClusterSweepReport(cells, 1, options);
    ASSERT_TRUE(uninterrupted.allOk());

    truncateJournal(full.path(), 1);
    options.resume = true;
    const ClusterSweepReport resumed =
        runClusterSweepReport(cells, 1, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, 1u);

    std::vector<std::string> a;
    std::vector<std::string> b;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        a.push_back(encodeClusterCheckpointPayload(
            "cell", uninterrupted.cells[i].result));
        b.push_back(encodeClusterCheckpointPayload(
            "cell", resumed.cells[i].result));
    }
    EXPECT_EQ(a, b);
    // The two backends' cluster results are byte-identical too.
    EXPECT_EQ(a[0], a[1]);
}

TEST(PlatformDifferential, FingerprintSeesBackendFlip)
{
    std::vector<PlatformCell> cells = mixedBackendGrid();
    const std::uint64_t before = platformSweepFingerprint(cells);
    cells[0].server.platform_backend = PlatformBackend::Reference;
    EXPECT_NE(before, platformSweepFingerprint(cells))
        << "a journal from one backend must not resume into the other";
}

}  // namespace
}  // namespace faascache
