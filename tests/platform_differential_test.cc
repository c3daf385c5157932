// Differential battery for the platform hot-path rebuild (DESIGN.md
// §4f): PlatformBackend::Dense (arena request queue, streamed
// arrivals, parked ticks) must be byte-identical to
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
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle_policy.h"
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
 * boundaries, so arrivals pile onto identical timestamps: many
 * offers at one instant, with nothing left to settle between them.
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
                    0,
                    static_cast<TimeUs>(30 + rng.uniformInt(120)) * kSecond,
                    static_cast<TimeUs>(rng.uniformInt(30)) * kSecond});
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
        // Fault-free: the engine's whole-run window (one round, nothing
        // crosses shards).
        ClusterConfig split = baseClusterConfig();
        split.balancing = balancing;
        expectClusterBackendsAgree(
            pressureTrace(), PolicyKind::GreedyDual, split,
            "split/balancing=" + std::to_string(static_cast<int>(
                                     balancing)));

        // Crashing fleet with full failover machinery: windows of
        // base_backoff_us and the front end's dispatch cursor. Both
        // window regimes must agree across platform backends.
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
sweepPayloads(const SweepReport<PlatformResult>& report)
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
    const SweepReport<PlatformResult> serial = runPlatformSweepReport(cells, 1);
    const SweepReport<PlatformResult> parallel =
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
    SweepOptions options;
    options.checkpoint_path = full.path();
    const SweepReport<PlatformResult> uninterrupted =
        runPlatformSweepReport(cells, 1, options);
    ASSERT_TRUE(uninterrupted.allOk());

    // "Kill" after two journaled cells, then resume.
    truncateJournal(full.path(), 2);
    options.resume = true;
    const SweepReport<PlatformResult> resumed =
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
    SweepOptions options;
    options.checkpoint_path = full.path();
    const SweepReport<ClusterResult> uninterrupted =
        runClusterSweepReport(cells, 1, options);
    ASSERT_TRUE(uninterrupted.allOk());

    truncateJournal(full.path(), 1);
    options.resume = true;
    const SweepReport<ClusterResult> resumed =
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

// --------------------------------------------------------------------
// Parked maintenance ticks. A Dense server whose policy is
// resource-conserving skips the ticks of a quiescent stretch — it
// parks the tick until the next offer/crash/restart/oomKill — while
// the Reference backend fires every one. Parking is off under an
// auditor, so the Dense side of these cases runs unaudited; the
// Reference side keeps the auditor.

constexpr TimeUs kTick = 10 * kSecond;

/** Catalog shared by the parking traces: tight enough to evict. */
void
addParkingCatalog(Trace& t, FunctionId n)
{
    for (FunctionId id = 0; id < n; ++id) {
        t.addFunction(makeFunction(
            id, "pk" + std::to_string(id),
            96.0 + static_cast<double>(id % 4) * 80.0,
            fromMillis(150 + 100 * (id % 3)), fromMillis(700)));
    }
}

/** Short bursts separated by multi-hour idle gaps. */
Trace
idleGapTrace()
{
    Trace t("park-idle-gaps");
    addParkingCatalog(t, 10);
    TimeUs at = 3 * kSecond;
    for (TimeUs gap : {2 * kHour, 5 * kHour, 3 * kHour + 7 * kSecond,
                       9 * kHour}) {
        for (FunctionId id = 0; id < 10; ++id)
            t.addInvocation(id, at + static_cast<TimeUs>(id) * 400'000);
        at += gap;
    }
    t.addInvocation(3, at);
    return t;
}

/** Arrivals on a tick grid point and 1 us either side of one, each
 *  after the server went quiescent. */
Trace
gridEdgeTrace()
{
    Trace t("park-grid-edges");
    addParkingCatalog(t, 6);
    TimeUs grid = 0;
    for (int round = 0; round < 6; ++round) {
        grid += (37 + 11 * round) * kTick;
        const FunctionId fn = static_cast<FunctionId>(round % 6);
        t.addInvocation(fn, grid - 1);
        grid += 17 * kTick;
        t.addInvocation(static_cast<FunctionId>((fn + 1) % 6), grid);
        grid += 23 * kTick;
        t.addInvocation(static_cast<FunctionId>((fn + 2) % 6), grid + 1);
        t.addInvocation(static_cast<FunctionId>((fn + 3) % 6), grid + 1);
    }
    return t;
}

/** A minute-bucket burst (every function at one instant) after a long
 *  gap: evictions, a backed-up queue and timeouts out of quiescence. */
Trace
burstAfterGapTrace()
{
    Trace t("park-burst-after-gap");
    addParkingCatalog(t, 30);
    t.addInvocation(0, 0);
    t.addInvocation(1, 2 * kSecond);
    for (TimeUs minute : {4 * kHour, 4 * kHour + kMinute,
                          11 * kHour + 30 * kSecond}) {
        for (FunctionId id = 0; id < 30; ++id)
            t.addInvocation(id, minute);
    }
    return t;
}

using PolicyMaker =
    std::function<std::unique_ptr<KeepAlivePolicy>(const Trace&)>;

/** Every resource-conserving policy, by name. */
std::vector<std::pair<std::string, PolicyMaker>>
conservingPolicies()
{
    std::vector<std::pair<std::string, PolicyMaker>> makers;
    for (PolicyKind kind : allPolicyKinds()) {
        if (!makePolicy(kind)->resourceConserving())
            continue;
        makers.emplace_back(policyKindName(kind), [kind](const Trace&) {
            return makePolicy(kind);
        });
    }
    makers.emplace_back("ORACLE", [](const Trace& trace) {
        return std::make_unique<OraclePolicy>(trace);
    });
    return makers;
}

ServerConfig
parkingServer()
{
    ServerConfig server;
    server.cores = 3;
    server.memory_mb = 600.0;
    server.cold_start_cpu_slots = 2;
    server.queue_capacity = 24;
    server.maintenance_interval_us = kTick;
    return server;
}

/** Replay `trace` through begin/offer/advanceTo/finish, settling the
 *  server to each arrival first exactly like the cluster does, and
 *  finish at the last arrival + `tail` (0 for an empty trace). */
PlatformResult
runIncremental(Server& server, const Trace& trace, TimeUs tail = kMinute)
{
    server.begin(trace.functions(), trace.invocations().size());
    const auto& invs = trace.invocations();
    for (std::size_t i = 0; i < invs.size(); ++i) {
        server.advanceTo(invs[i].arrival_us);
        server.offer(i, invs[i], invs[i].arrival_us);
    }
    return server.finish(invs.empty() ? 0
                                      : invs.back().arrival_us + tail);
}

void
expectParkingAgrees(const Trace& trace,
                    ServerConfig server = parkingServer())
{
    for (const auto& [name, make] : conservingPolicies()) {
        for (bool incremental : {false, true}) {
            const std::string label = trace.name() + "/" + name +
                (incremental ? "/incremental" : "/run");
            server.platform_backend = PlatformBackend::Dense;
            Server dense(make(trace), server);
            Auditor audit;
            ServerConfig reference_config = server;
            reference_config.platform_backend = PlatformBackend::Reference;
            reference_config.audit = &audit;
            Server reference(make(trace), reference_config);
            const PlatformResult d = incremental
                ? runIncremental(dense, trace)
                : dense.run(trace);
            const PlatformResult r = incremental
                ? runIncremental(reference, trace)
                : reference.run(trace);
            EXPECT_EQ(encodePlatformCheckpointPayload("cell", d),
                      encodePlatformCheckpointPayload("cell", r))
                << "parked ticks diverged: " << label;
            EXPECT_EQ(audit.violationCount(), 0)
                << label << ": " << audit.report();
            EXPECT_GT(d.served(), 0) << label;
        }
    }
}

TEST(ParkedTicks, MultiHourIdleGapsAgree)
{
    expectParkingAgrees(idleGapTrace());
}

TEST(ParkedTicks, ArrivalsOnAndBesideTheTickGridAgree)
{
    expectParkingAgrees(gridEdgeTrace());
}

TEST(ParkedTicks, MinuteBurstAfterLongGapAgrees)
{
    const Trace trace = burstAfterGapTrace();
    expectParkingAgrees(trace);
    // The burst must really stress the drain, or the case proves little.
    Server probe(makePolicy(PolicyKind::GreedyDual), parkingServer());
    const PlatformResult r = probe.run(trace);
    EXPECT_GT(r.evictions, 0);
    EXPECT_GT(r.dropped(), 0);
}

// The first tick after a wake-up is the only thing that drops the
// timed-out requests stuck behind a long invocation, and freeing their
// queue slots decides whether a later arrival is buffered or dropped.
// A tick re-armed off the grid, or not at all, moves that drop.
TEST(ParkedTicks, TimeoutDropsAfterWakeUpAgree)
{
    Trace trace("park-timeout-after-wake");
    trace.addFunction(makeFunction(0, "short", 100.0, fromMillis(200),
                                   fromMillis(300)));
    trace.addFunction(makeFunction(1, "long", 100.0, fromSeconds(100),
                                   fromMillis(300)));
    const TimeUs wake = 2 * kHour + 3 * kSecond;
    trace.addInvocation(0, 0);
    trace.addInvocation(1, wake);
    trace.addInvocation(0, wake + kSecond);
    trace.addInvocation(0, wake + kSecond);
    // The stuck pair times out after wake + 31 s; the first grid tick
    // past that is wake + 37 s.
    trace.addInvocation(0, wake + 38 * kSecond);

    ServerConfig server = parkingServer();
    server.cores = 1;
    server.cold_start_cpu_slots = 1;
    server.queue_capacity = 2;
    expectParkingAgrees(trace, server);

    Server probe(makePolicy(PolicyKind::GreedyDual), server);
    const PlatformResult r = probe.run(trace);
    // The late arrival is buffered (and times out in turn behind the
    // long run); without that tick it would be dropped as queue-full.
    EXPECT_EQ(r.dropped_timeout, 3);
    EXPECT_EQ(r.dropped_queue_full, 0);
    EXPECT_EQ(r.served(), 2);
}

// The windowed cluster drives its servers incrementally; crashes,
// restarts and OOM kills scheduled inside the idle gaps land on parked
// servers and must re-arm their ticks exactly.
TEST(ParkedTicks, FaultsOnParkedClusterServersAgree)
{
    const Trace trace = idleGapTrace();
    ClusterConfig config;
    config.num_servers = 3;
    config.server = parkingServer();
    config.balancing = LoadBalancing::RoundRobin;
    config.faults.crashes.push_back(CrashEvent{0, kHour, 30 * kMinute});
    config.faults.crashes.push_back(
        CrashEvent{1, 3 * kHour + 5 * kSecond, 2 * kHour + 1});
    config.faults.crashes.push_back(CrashEvent{2, 7 * kHour + kTick, 0});
    config.faults.oom_kills.push_back(OomKillEvent{0, 2 * kHour + 1});
    config.faults.oom_kills.push_back(OomKillEvent{1, 8 * kHour});
    // A kill while the burst is still running, for contrast.
    config.faults.oom_kills.push_back(OomKillEvent{0, 3 * kSecond + 500});
    config.failover.max_retries = 3;
    config.failover.base_backoff_us = 100 * kMillisecond;
    for (std::size_t shards : {1u, 2u}) {
        for (PolicyKind kind : allPolicyKinds()) {
            if (!makePolicy(kind)->resourceConserving())
                continue;
            config.shards = shards;
            config.server.platform_backend = PlatformBackend::Dense;
            config.server.audit = nullptr;
            const ClusterResult dense = runCluster(trace, kind, config);
            Auditor audit;
            config.server.platform_backend = PlatformBackend::Reference;
            config.server.audit = &audit;
            const ClusterResult reference =
                runCluster(trace, kind, config);
            const std::string label = policyKindName(kind) +
                "/shards=" + std::to_string(shards);
            EXPECT_EQ(encodeClusterCheckpointPayload("cell", dense),
                      encodeClusterCheckpointPayload("cell", reference))
                << "parked cluster servers diverged: " << label;
            EXPECT_EQ(audit.violationCount(), 0)
                << label << ": " << audit.report();
            std::int64_t crashes = 0;
            std::int64_t restarts = 0;
            std::int64_t oom_kills = 0;
            for (const PlatformResult& s : dense.servers) {
                crashes += s.robustness.crashes;
                restarts += s.robustness.restarts;
                oom_kills += s.robustness.oom_kills;
            }
            EXPECT_EQ(crashes, 3) << label;
            EXPECT_EQ(restarts, 2) << label;
            EXPECT_GE(oom_kills, 1) << label;
        }
    }
}

// --------------------------------------------------------------------
// One Dense driver: run() is a loop over begin/advanceTo/offer/finish,
// so the standalone replay, that loop driven by hand, and the
// Reference replay share one tick chain, one tick order and one
// horizon rule. The Dense runs are unaudited so that parking stays on.

/**
 * Assert byte-identical payloads from Dense run(), the hand-driven
 * begin/advanceTo/offer/finish loop (skipped when `plan` is set:
 * begin() leaves crashes and OOM kills to the caller), and the audited
 * Reference run().
 */
void
expectDriversAgree(const Trace& trace, PolicyKind kind, ServerConfig server,
                   const PolicyConfig& policy, const FaultPlan* plan,
                   const std::string& label)
{
    server.platform_backend = PlatformBackend::Dense;
    server.audit = nullptr;
    const std::string dense_run = encodePlatformCheckpointPayload(
        "cell", runOne(trace, kind, server, policy, plan));
    Auditor audit;
    ServerConfig reference = server;
    reference.platform_backend = PlatformBackend::Reference;
    reference.audit = &audit;
    const std::string reference_run = encodePlatformCheckpointPayload(
        "cell", runOne(trace, kind, reference, policy, plan));
    EXPECT_EQ(dense_run, reference_run) << "run() diverged: " << label;
    EXPECT_EQ(audit.violationCount(), 0)
        << label << ": " << audit.report();
    if (plan != nullptr)
        return;
    Server driven(makePolicy(kind, policy), server);
    const std::string dense_loop = encodePlatformCheckpointPayload(
        "cell", runIncremental(driven, trace, server.queue_timeout_us));
    EXPECT_EQ(dense_loop, reference_run) << "loop diverged: " << label;
}

// The fault plan puts crashes, restarts and OOM kills on grid points,
// each restart scheduled more than one interval before it lands.
TEST(SingleDriver, EveryPolicyAgreesAcrossDrivers)
{
    FaultPlan grid_faults;
    grid_faults.crashes.push_back(
        CrashEvent{0, 40 * kSecond, 30 * kSecond});
    grid_faults.crashes.push_back(
        CrashEvent{0, 125 * kSecond, 25 * kSecond});
    grid_faults.oom_kills.push_back(OomKillEvent{0, 100 * kSecond});
    grid_faults.oom_kills.push_back(OomKillEvent{0, 200 * kSecond});
    const FaultPlan* const plans[] = {nullptr, &grid_faults};
    for (PolicyKind kind : allPolicyKinds()) {
        for (bool overload_on : {false, true}) {
            for (const FaultPlan* plan : plans) {
                ServerConfig server;
                server.cores = 4;
                server.memory_mb = 700.0;
                server.cold_start_cpu_slots = 2;
                if (overload_on)
                    server.overload = fullOverload();
                expectDriversAgree(
                    pressureTrace(), kind, server, PolicyConfig{}, plan,
                    policyKindName(kind) +
                        (overload_on ? "/overload-on" : "/overload-off") +
                        (plan != nullptr ? "/grid-faults" : ""));
            }
        }
    }
}

// The horizon (last arrival + a 3 s queue timeout = 54 s) falls
// between grid points of a 10 s tick, and 2 s leases expire at almost
// every tick. The loop arms the 60 s tick before finish() names the
// horizon; firing it would expire the last container, an expiration
// run() never sees.
TEST(SingleDriver, QueueTimeoutBelowTickIntervalAgrees)
{
    Trace trace("driver-short-timeout");
    addParkingCatalog(trace, 4);
    for (TimeUs at : {TimeUs{0}, 12 * kSecond, 27 * kSecond,
                      27 * kSecond + 1, 41 * kSecond, 51 * kSecond}) {
        trace.addInvocation(
            static_cast<FunctionId>((at / kSecond) % 4), at);
    }
    ServerConfig server = parkingServer();
    server.queue_timeout_us = 3 * kSecond;
    server.maintenance_interval_us = 10 * kSecond;
    PolicyConfig policy;
    policy.ttl_us = 2 * kSecond;
    for (PolicyKind kind : allPolicyKinds()) {
        expectDriversAgree(trace, kind, server, policy, nullptr,
                           "short-timeout/" + policyKindName(kind));
    }
    Server ttl(makePolicy(PolicyKind::Ttl, policy), server);
    EXPECT_GT(ttl.run(trace).expirations, 0);
}

TEST(SingleDriver, EmptyTraceWithAdmissionAndBrownoutAgrees)
{
    Trace empty("driver-empty");
    addParkingCatalog(empty, 3);
    ServerConfig server;
    server.overload = fullOverload();
    for (PolicyKind kind : allPolicyKinds()) {
        expectDriversAgree(empty, kind, server, PolicyConfig{}, nullptr,
                           "empty/" + policyKindName(kind));
    }
}

// A cold start at 0 finishes at 30 s, on the 10 s tick grid. Its
// Finish was scheduled at 0 and the tick at 30 s only at 20 s, so FIFO
// delivers the Finish first: the tick sees the container idle, its
// 20 s lease (counted from the start at 0) has run out, and the
// arrival at 35 s starts cold. Ticking first would have found the
// container busy and served that arrival warm.
TEST(SingleDriver, FinishScheduledEarlierPrecedesATickAtItsInstant)
{
    Trace trace("driver-finish-on-grid");
    trace.addFunction(makeFunction(0, "long", 128.0, 25 * kSecond,
                                   5 * kSecond));
    trace.addInvocation(0, 0);
    trace.addInvocation(0, 35 * kSecond);
    ServerConfig server;
    server.cores = 2;
    server.memory_mb = 512.0;
    server.maintenance_interval_us = 10 * kSecond;
    PolicyConfig policy;
    policy.ttl_us = 20 * kSecond;
    for (PolicyKind kind : allPolicyKinds()) {
        expectDriversAgree(trace, kind, server, policy, nullptr,
                           "finish-on-grid/" + policyKindName(kind));
    }
    Server ttl(makePolicy(PolicyKind::Ttl, policy), server);
    const PlatformResult r = ttl.run(trace);
    EXPECT_EQ(r.cold_starts, 2);
    EXPECT_EQ(r.warm_starts, 0);
    EXPECT_GE(r.expirations, 1);
}

}  // namespace
}  // namespace faascache
