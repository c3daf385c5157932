// Checkpoint/resume for the platform and cluster sweeps
// (platform/experiment_checkpoint.h): full-fidelity payload codecs,
// grid fingerprints, and runPlatformSweepReport()/
// runClusterSweepReport() resume that restores results bit-for-bit.
#include "platform/experiment_checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/experiment.h"
#include "trace/function_spec.h"
#include "util/checkpoint_journal.h"

namespace faascache {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) +
                "faascache_platform_" + tag + ".ckpt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Two functions contending for memory: warm hits, colds, and drops. */
const Trace&
testTrace()
{
    static const Trace kTrace = [] {
        Trace t("platform-ckpt-test");
        t.addFunction(makeFunction(0, "hot", 400, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        t.addFunction(makeFunction(1, "big", 700, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        for (int i = 0; i < 200; ++i)
            t.addInvocation(i % 4 == 3 ? 1 : 0, i * 2 * kSecond);
        return t;
    }();
    return kTrace;
}

std::vector<PlatformCell>
platformGrid()
{
    std::vector<PlatformCell> cells;
    for (double memory_mb : {600.0, 1200.0}) {
        for (PolicyKind kind :
             {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
            PlatformCell cell;
            cell.trace = &testTrace();
            cell.kind = kind;
            cell.server.cores = 2;
            cell.server.memory_mb = memory_mb;
            cells.push_back(cell);
        }
    }
    return cells;
}

std::vector<ClusterCell>
clusterGrid()
{
    std::vector<ClusterCell> cells;
    for (PolicyKind kind : {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
        ClusterCell cell;
        cell.trace = &testTrace();
        cell.kind = kind;
        cell.config.num_servers = 2;
        cell.config.server.cores = 2;
        cell.config.server.memory_mb = 700;
        cells.push_back(cell);
    }
    return cells;
}

void
expectSameServerConfig(const ServerConfig& a, const ServerConfig& b)
{
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.memory_mb, b.memory_mb);
    EXPECT_EQ(a.queue_capacity, b.queue_capacity);
    EXPECT_EQ(a.queue_timeout_us, b.queue_timeout_us);
    EXPECT_EQ(a.maintenance_interval_us, b.maintenance_interval_us);
    EXPECT_EQ(a.enable_prewarm, b.enable_prewarm);
    EXPECT_EQ(a.cold_start_cpu_slots, b.cold_start_cpu_slots);
    EXPECT_EQ(a.overload.admission.enabled, b.overload.admission.enabled);
    EXPECT_EQ(a.overload.admission.target_delay_us,
              b.overload.admission.target_delay_us);
    EXPECT_EQ(a.overload.admission.interval_us,
              b.overload.admission.interval_us);
    EXPECT_EQ(a.overload.brownout.enabled, b.overload.brownout.enabled);
    EXPECT_EQ(a.overload.brownout.min_duration_us,
              b.overload.brownout.min_duration_us);
    EXPECT_EQ(a.overload.brownout.on_admission_violation,
              b.overload.brownout.on_admission_violation);
    EXPECT_EQ(a.overload.brownout.on_memory_pressure,
              b.overload.brownout.on_memory_pressure);
}

void
expectSamePlatformResult(const PlatformResult& a, const PlatformResult& b)
{
    EXPECT_EQ(a.policy_name, b.policy_name);
    expectSameServerConfig(a.config, b.config);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.dropped_queue_full, b.dropped_queue_full);
    EXPECT_EQ(a.dropped_timeout, b.dropped_timeout);
    EXPECT_EQ(a.dropped_oversize, b.dropped_oversize);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.prewarms, b.prewarms);
    EXPECT_EQ(a.robustness.spawn_failures, b.robustness.spawn_failures);
    EXPECT_EQ(a.robustness.crashes, b.robustness.crashes);
    EXPECT_EQ(a.robustness.restarts, b.robustness.restarts);
    EXPECT_EQ(a.robustness.dropped_unavailable,
              b.robustness.dropped_unavailable);
    EXPECT_EQ(a.robustness.redispatch_cold_starts,
              b.robustness.redispatch_cold_starts);
    EXPECT_EQ(a.robustness.downtime_us, b.robustness.downtime_us);
    EXPECT_EQ(a.overload, b.overload);
    EXPECT_EQ(a.last_congested_us, b.last_congested_us);
    ASSERT_EQ(a.catalog_size, b.catalog_size);
    for (FunctionId i = 0; i < a.catalog_size; ++i) {
        EXPECT_EQ(a.outcomeOf(i).warm, b.outcomeOf(i).warm);
        EXPECT_EQ(a.outcomeOf(i).cold, b.outcomeOf(i).cold);
        EXPECT_EQ(a.outcomeOf(i).dropped, b.outcomeOf(i).dropped);
    }
    // Bit-exact doubles: the hexfloat codec must round-trip perfectly.
    ASSERT_EQ(a.latencies_sec.size(), b.latencies_sec.size());
    for (std::size_t i = 0; i < a.latencies_sec.size(); ++i)
        EXPECT_EQ(a.latencies_sec[i], b.latencies_sec[i]);
    for (FunctionId i = 0; i < a.catalog_size; ++i)
        EXPECT_EQ(a.latencySumOf(i), b.latencySumOf(i));
}

void
expectSameClusterResult(const ClusterResult& a, const ClusterResult& b)
{
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    EXPECT_EQ(a.retry_budget_exhausted, b.retry_budget_exhausted);
    EXPECT_EQ(a.breaker_opens, b.breaker_opens);
    EXPECT_EQ(a.breaker_closes, b.breaker_closes);
    EXPECT_EQ(a.breaker_probes, b.breaker_probes);
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t i = 0; i < a.servers.size(); ++i)
        expectSamePlatformResult(a.servers[i], b.servers[i]);
}

TEST(PlatformCheckpointCodec, RoundTripsARealRun)
{
    const PlatformCell cell = platformGrid()[1];
    const PlatformResult result =
        runPlatform(*cell.trace, cell.kind, cell.server, cell.policy);
    ASSERT_GT(result.served(), 0);
    ASSERT_FALSE(result.latencies_sec.empty());

    const std::string payload =
        encodePlatformCheckpointPayload("grid key/with spaces", result);
    std::string key;
    PlatformResult decoded;
    ASSERT_TRUE(decodePlatformCheckpointPayload(payload, &key, &decoded));
    EXPECT_EQ(key, "grid key/with spaces");
    expectSamePlatformResult(result, decoded);
}

TEST(PlatformCheckpointCodec, RoundTripsOverloadCounters)
{
    // Non-zero overload accounting (a hand-built result: the grid's
    // cells never trip the controllers) must survive the codec.
    PlatformCell cell = platformGrid()[0];
    PlatformResult result =
        runPlatform(*cell.trace, cell.kind, cell.server, cell.policy);
    result.config.overload.admission.enabled = true;
    result.config.overload.admission.target_delay_us = 123;
    result.config.overload.brownout.enabled = true;
    result.config.overload.brownout.on_memory_pressure = false;
    result.overload.admission_shed = 17;
    result.overload.admission_violations = 3;
    result.overload.brownout_denied_cold = 9;
    result.overload.brownout_windows = 2;
    result.overload.brownout_us = 42 * kSecond;
    result.last_congested_us = 7 * kMinute;

    const std::string payload =
        encodePlatformCheckpointPayload("overload", result);
    std::string key;
    PlatformResult decoded;
    ASSERT_TRUE(decodePlatformCheckpointPayload(payload, &key, &decoded));
    expectSamePlatformResult(result, decoded);
}

TEST(ClusterCheckpointCodec, RoundTripsOverloadCounters)
{
    const ClusterCell cell = clusterGrid()[0];
    ClusterResult result =
        runCluster(*cell.trace, cell.kind, cell.config, cell.policy);
    result.retry_budget_exhausted = 5;
    result.breaker_opens = 4;
    result.breaker_closes = 3;
    result.breaker_probes = 11;

    const std::string payload =
        encodeClusterCheckpointPayload("overload", result);
    std::string key;
    ClusterResult decoded;
    ASSERT_TRUE(decodeClusterCheckpointPayload(payload, &key, &decoded));
    expectSameClusterResult(result, decoded);
}

TEST(PlatformCheckpointCodec, RejectsTruncationAndTrailingGarbage)
{
    const PlatformCell cell = platformGrid()[0];
    const PlatformResult result =
        runPlatform(*cell.trace, cell.kind, cell.server, cell.policy);
    const std::string payload =
        encodePlatformCheckpointPayload("k", result);

    std::string key;
    PlatformResult decoded;
    EXPECT_FALSE(decodePlatformCheckpointPayload(
        payload.substr(0, payload.size() / 2), &key, &decoded));
    EXPECT_FALSE(decodePlatformCheckpointPayload(payload + " 7", &key,
                                                 &decoded));
    EXPECT_FALSE(decodePlatformCheckpointPayload("", &key, &decoded));
}

/** A result over a 6-function catalog with records for 1 and 4. */
PlatformResult
sparseResult()
{
    PlatformResult r;
    r.policy_name = "GD";
    r.warm_starts = 3;
    r.cold_starts = 2;
    r.dropped_timeout = 1;
    r.catalog_size = 6;
    r.function_records = {
        {1, FunctionOutcome{2, 1, 0}, 0.75},
        {4, FunctionOutcome{1, 1, 1}, 1.5},
    };
    r.latencies_sec = {0.25, 0.25, 0.25, 0.5, 1.0};
    return r;
}

TEST(PlatformCheckpointCodec, SparseRecordsEncodeAsCatalogWideRows)
{
    const PlatformResult r = sparseResult();
    const std::string payload = encodePlatformCheckpointPayload("k", r);
    // The tail is the dense encoding: six outcome rows, the latency
    // stream, then six latency sums, with zero rows for 0, 2, 3 and 5.
    const std::string z = hexDoubleToken(0.0);
    std::string tail = " 6 0 0 0 2 1 0 0 0 0 0 0 0 1 1 1 0 0 0 5";
    for (double latency : r.latencies_sec)
        tail += " " + hexDoubleToken(latency);
    tail += " 6 " + z + " " + hexDoubleToken(0.75) + " " + z + " " + z +
        " " + hexDoubleToken(1.5) + " " + z;
    ASSERT_GE(payload.size(), tail.size());
    EXPECT_EQ(payload.substr(payload.size() - tail.size()), tail);

    std::string key;
    PlatformResult decoded;
    ASSERT_TRUE(decodePlatformCheckpointPayload(payload, &key, &decoded));
    EXPECT_EQ(decoded.catalog_size, 6u);
    EXPECT_EQ(decoded.function_records, r.function_records);
    EXPECT_EQ(decoded.outcomeOf(4), (FunctionOutcome{1, 1, 1}));
    EXPECT_EQ(decoded.outcomeOf(5), FunctionOutcome{});
    EXPECT_EQ(decoded.latencySumOf(1), 0.75);
    EXPECT_EQ(decoded.latencySumOf(2), 0.0);
    EXPECT_THROW(decoded.outcomeOf(6), std::out_of_range);
    EXPECT_EQ(encodePlatformCheckpointPayload(key, decoded), payload);
}

TEST(PlatformCheckpointCodec, RejectsRowsNoRecordCanHold)
{
    const std::string payload =
        encodePlatformCheckpointPayload("k", sparseResult());
    const std::string z = hexDoubleToken(0.0);
    const std::string sums = " 6 " + z + " " + hexDoubleToken(0.75);
    const std::size_t at = payload.rfind(sums);
    ASSERT_NE(at, std::string::npos);
    std::string key;
    PlatformResult decoded;
    const auto withSums = [&](const std::string& replacement) {
        std::string bad = payload;
        bad.replace(at, sums.size(), replacement);
        return decodePlatformCheckpointPayload(bad, &key, &decoded);
    };
    ASSERT_TRUE(withSums(sums));
    // Function 0 has a zero outcome, so its sum must be +0.0.
    EXPECT_FALSE(withSums(" 6 " + hexDoubleToken(0.5) + " " +
                          hexDoubleToken(0.75)));
    EXPECT_FALSE(withSums(" 6 " + hexDoubleToken(-0.0) + " " +
                          hexDoubleToken(0.75)));
    // The sums must cover the outcome rows' catalog.
    EXPECT_FALSE(withSums(" 7 " + z + " " + hexDoubleToken(0.75)));
}

TEST(PlatformCheckpointCodec, GoldenJournalsDecodeAndReencodeIdentically)
{
    const auto records = [](const char* name) {
        const CheckpointJournalLoad load = loadCheckpointJournal(
            std::string(FAASCACHE_GOLDEN_DIR) + "/" + name);
        EXPECT_FALSE(load.records.empty()) << name;
        EXPECT_FALSE(load.torn_tail) << name;
        return load.records;
    };
    for (const CheckpointJournalRecord& record :
         records("journal_platform.ckpt")) {
        std::string key;
        PlatformResult decoded;
        ASSERT_TRUE(
            decodePlatformCheckpointPayload(record.payload, &key, &decoded));
        EXPECT_EQ(encodePlatformCheckpointPayload(key, decoded),
                  record.payload)
            << key;
    }
    for (const CheckpointJournalRecord& record :
         records("journal_cluster.ckpt")) {
        std::string key;
        ClusterResult decoded;
        ASSERT_TRUE(
            decodeClusterCheckpointPayload(record.payload, &key, &decoded));
        EXPECT_EQ(encodeClusterCheckpointPayload(key, decoded),
                  record.payload)
            << key;
    }
}

TEST(ClusterCheckpointCodec, RoundTripsARealRun)
{
    const ClusterCell cell = clusterGrid()[1];
    const ClusterResult result =
        runCluster(*cell.trace, cell.kind, cell.config, cell.policy);
    ASSERT_EQ(result.servers.size(), 2u);

    const std::string payload =
        encodeClusterCheckpointPayload("cluster/cell", result);
    std::string key;
    ClusterResult decoded;
    ASSERT_TRUE(decodeClusterCheckpointPayload(payload, &key, &decoded));
    EXPECT_EQ(key, "cluster/cell");
    expectSameClusterResult(result, decoded);
}

TEST(PlatformFingerprint, SensitiveToGridKnobs)
{
    const std::vector<PlatformCell> grid = platformGrid();
    EXPECT_EQ(platformSweepFingerprint(grid),
              platformSweepFingerprint(platformGrid()));

    std::vector<PlatformCell> resized = platformGrid();
    resized[0].server.memory_mb += 1.0;
    EXPECT_NE(platformSweepFingerprint(grid),
              platformSweepFingerprint(resized));

    std::vector<PlatformCell> fewer = platformGrid();
    fewer.pop_back();
    EXPECT_NE(platformSweepFingerprint(grid),
              platformSweepFingerprint(fewer));

    // Overload knobs are part of the grid identity: a resumed sweep
    // must not mix defended and undefended cells.
    std::vector<PlatformCell> defended = platformGrid();
    defended[0].server.overload.admission.enabled = true;
    EXPECT_NE(platformSweepFingerprint(grid),
              platformSweepFingerprint(defended));

    std::vector<PlatformCell> browned = platformGrid();
    browned[0].server.overload.brownout.enabled = true;
    EXPECT_NE(platformSweepFingerprint(grid),
              platformSweepFingerprint(browned));
}

TEST(ClusterFingerprint, SensitiveToFleetAndFaultKnobs)
{
    const std::vector<ClusterCell> grid = clusterGrid();
    EXPECT_EQ(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(clusterGrid()));

    std::vector<ClusterCell> rebalanced = clusterGrid();
    rebalanced[0].config.balancing = LoadBalancing::RoundRobin;
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(rebalanced));

    std::vector<ClusterCell> faulted = clusterGrid();
    faulted[1].config.faults.crashes.push_back(
        {0, 10 * kMinute, 2 * kMinute});
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(faulted));

    std::vector<ClusterCell> bigger = clusterGrid();
    bigger[0].config.num_servers = 3;
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(bigger));

    std::vector<ClusterCell> jittered = clusterGrid();
    jittered[0].config.failover.backoff_jitter_frac = 0.25;
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(jittered));

    std::vector<ClusterCell> budgeted = clusterGrid();
    budgeted[0].config.failover.retry_budget.ratio = 0.1;
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(budgeted));

    std::vector<ClusterCell> broken = clusterGrid();
    broken[0].config.failover.breaker.failure_threshold = 5;
    EXPECT_NE(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(broken));
}

TEST(PlatformSweepResume, RestoresEveryCellBitForBit)
{
    TempFile ckpt("platform_resume");
    const std::vector<PlatformCell> grid = platformGrid();

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<PlatformResult> first =
        runPlatformSweepReport(grid, 2, options);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.restored, 0u);

    options.resume = true;
    const SweepReport<PlatformResult> resumed =
        runPlatformSweepReport(grid, 2, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, grid.size());
    EXPECT_FALSE(resumed.torn_tail);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(resumed.cells[i].restored);
        expectSamePlatformResult(first.cells[i].result,
                                 resumed.cells[i].result);
    }
}

TEST(PlatformSweepResume, RefusesACheckpointFromAnotherGrid)
{
    TempFile ckpt("platform_refuse");
    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    ASSERT_TRUE(runPlatformSweepReport(platformGrid(), 2, options).allOk());

    std::vector<PlatformCell> other = platformGrid();
    other[0].server.memory_mb = 50.0;
    options.resume = true;
    EXPECT_THROW(runPlatformSweepReport(other, 2, options),
                 std::runtime_error);
}

TEST(ClusterSweepResume, RestoresEveryCellBitForBit)
{
    TempFile ckpt("cluster_resume");
    const std::vector<ClusterCell> grid = clusterGrid();

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<ClusterResult> first =
        runClusterSweepReport(grid, 2, options);
    ASSERT_TRUE(first.allOk());

    options.resume = true;
    const SweepReport<ClusterResult> resumed =
        runClusterSweepReport(grid, 2, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(resumed.cells[i].restored);
        expectSameClusterResult(first.cells[i].result,
                                resumed.cells[i].result);
    }
}

TEST(ClusterSweepResume, PartialJournalRerunsOnlyMissingCells)
{
    TempFile ckpt("cluster_partial");
    const std::vector<ClusterCell> grid = clusterGrid();
    const std::vector<std::string> keys = clusterCellKeys(grid);

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<ClusterResult> first =
        runClusterSweepReport(grid, 2, options);
    ASSERT_TRUE(first.allOk());

    // Rewrite the journal with only the first cell's record, as if the
    // process was killed before the second cell finished.
    {
        CheckpointJournalWriter writer = CheckpointJournalWriter::beginFresh(
            ckpt.path(), clusterSweepFingerprint(grid));
        writer.append(encodeClusterCheckpointPayload(
            keys[0], first.cells[0].result));
    }

    options.resume = true;
    const SweepReport<ClusterResult> resumed =
        runClusterSweepReport(grid, 2, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, 1u);
    EXPECT_TRUE(resumed.cells[0].restored);
    EXPECT_FALSE(resumed.cells[1].restored);
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectSameClusterResult(first.cells[i].result,
                                resumed.cells[i].result);
}

TEST(ClusterSweepResume, JournalResumesAcrossShardCounts)
{
    // Results do not depend on the shard count, so it is not part of
    // the grid identity: a journal written at 2 shards restores every
    // cell at 4, byte for byte — also with the windowed engine armed.
    TempFile ckpt("cluster_shards");
    std::vector<ClusterCell> grid = clusterGrid();
    for (ClusterCell& cell : grid) {
        cell.config.faults.crashes.push_back(
            {0, 2 * kMinute, kMinute});
        cell.config.failover.shed_queue_depth = 8;
        cell.config.shards = 2;
    }
    const std::vector<std::string> keys = clusterCellKeys(grid);

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<ClusterResult> first =
        runClusterSweepReport(grid, 2, options);
    ASSERT_TRUE(first.allOk());

    std::vector<ClusterCell> wider = grid;
    for (ClusterCell& cell : wider)
        cell.config.shards = 4;
    EXPECT_EQ(clusterSweepFingerprint(grid),
              clusterSweepFingerprint(wider));
    options.resume = true;
    const SweepReport<ClusterResult> resumed =
        runClusterSweepReport(wider, 2, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(resumed.cells[i].restored);
        const ClusterResult fresh =
            runCluster(*wider[i].trace, wider[i].kind, wider[i].config,
                       wider[i].policy);
        EXPECT_EQ(encodeClusterCheckpointPayload(keys[i],
                                                 resumed.cells[i].result),
                  encodeClusterCheckpointPayload(keys[i], fresh));
        EXPECT_EQ(encodeClusterCheckpointPayload(keys[i],
                                                 first.cells[i].result),
                  encodeClusterCheckpointPayload(keys[i], fresh));
    }
}

/** A journal of clusterGrid() stamped with an older fingerprint
 *  `stale` must not resume. */
void
expectStaleClusterJournalRejected(std::uint64_t stale)
{
    const std::vector<ClusterCell> grid = clusterGrid();
    const std::vector<std::string> keys = clusterCellKeys(grid);
    ASSERT_NE(stale, clusterSweepFingerprint(grid));
    TempFile ckpt("cluster_stale");
    {
        CheckpointJournalWriter writer =
            CheckpointJournalWriter::beginFresh(ckpt.path(), stale);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            writer.append(encodeClusterCheckpointPayload(
                keys[i], runCluster(*grid[i].trace, grid[i].kind,
                                    grid[i].config, grid[i].policy)));
        }
    }
    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    options.resume = true;
    EXPECT_THROW(runClusterSweepReport(grid, 2, options),
                 std::runtime_error);
}

TEST(ClusterSweepResume, RejectsAJournalStampedV5)
{
    // clusterSweepFingerprint(clusterGrid()) under the v5 scheme, at
    // shards 0 (the old interleave) and at shards 1. v5 journals hold
    // results of the old fault-run semantic; resuming from one must
    // fail instead of mixing semantics.
    for (const std::uint64_t v5 : {0x150d50d6f40805ceULL,
                                   0x7465418da1537062ULL}) {
        expectStaleClusterJournalRejected(v5);
    }
}

TEST(ClusterSweepResume, RejectsAJournalStampedV6)
{
    // clusterSweepFingerprint(clusterGrid()) under the v6 scheme, whose
    // fault-free runs ended each server at its own last arrival plus
    // the queue timeout instead of at the fleet horizon.
    expectStaleClusterJournalRejected(0xe1d7ba292b167c95ULL);
}

}  // namespace
}  // namespace faascache
