// Checkpoint/resume for elastic-scaling sweeps
// (provisioning/elastic_sweep.h): the ElasticResult payload codec
// (timeline + embedded SimResult), grid fingerprints, and
// runElasticSweepReport() resume that restores results bit-for-bit.
#include "provisioning/elastic_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/azure_model.h"

namespace faascache {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) +
                "faascache_elastic_" + tag + ".ckpt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

const Trace&
diurnalWorkload()
{
    static const Trace kTrace = [] {
        AzureModelConfig config;
        config.seed = 17;
        config.num_functions = 40;
        config.duration_us = kHour;
        config.iat_median_sec = 30.0;
        config.max_rate_per_sec = 2.0;
        config.warm_median_ms = 100.0;
        config.warm_sigma = 0.8;
        config.mem_median_mb = 128.0;
        config.mem_sigma = 0.6;
        config.mem_min_mb = 64;
        config.mem_max_mb = 512;
        config.diurnal = true;
        config.diurnal_period_us = kHour;
        config.name = "elastic-sweep-test";
        return generateAzureTrace(config);
    }();
    return kTrace;
}

std::vector<ElasticCell>
elasticGrid()
{
    std::vector<ElasticCell> cells;
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl}) {
        ElasticCell cell;
        cell.trace = &diurnalWorkload();
        cell.kind = kind;
        cell.controller.target_miss_speed = 1.0;
        cell.controller.min_size_mb = 512;
        cell.controller.max_size_mb = 8 * 1024;
        cell.elastic.initial_size_mb = 2000;
        cells.push_back(cell);
    }
    return cells;
}

/**
 * One 512 MB function whose minute-long invocations arrive every
 * second: a cache capped at 1 GB holds two of them and drops the rest,
 * so every control period sees overload pressure.
 */
ElasticCell
overloadedCell()
{
    static const Trace kTrace = [] {
        Trace t("elastic-overload");
        t.addFunction(makeFunction(0, "slow", 512, kMinute, kSecond));
        for (int i = 0; i < 20 * 60; ++i)
            t.addInvocation(0, i * kSecond);
        return t;
    }();
    ElasticCell cell;
    cell.trace = &kTrace;
    cell.kind = PolicyKind::GreedyDual;
    cell.controller.target_miss_speed = 1.0;
    cell.controller.min_size_mb = 512;
    cell.controller.max_size_mb = 1024;
    cell.elastic.control_period_us = 5 * kMinute;
    cell.elastic.initial_size_mb = 1024;
    return cell;
}

void
expectSameElasticResult(const ElasticResult& a, const ElasticResult& b)
{
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].time_us, b.timeline[i].time_us);
        // Bit-exact doubles: the hexfloat codec round-trips perfectly.
        EXPECT_EQ(a.timeline[i].cache_size_mb, b.timeline[i].cache_size_mb);
        EXPECT_EQ(a.timeline[i].arrival_rate, b.timeline[i].arrival_rate);
        EXPECT_EQ(a.timeline[i].miss_speed, b.timeline[i].miss_speed);
        EXPECT_EQ(a.timeline[i].smoothed_arrival,
                  b.timeline[i].smoothed_arrival);
        EXPECT_EQ(a.timeline[i].available_fraction,
                  b.timeline[i].available_fraction);
        EXPECT_EQ(a.timeline[i].overload_pressure,
                  b.timeline[i].overload_pressure);
    }
    EXPECT_EQ(a.sim.policy_name, b.sim.policy_name);
    EXPECT_EQ(a.sim.warm_starts, b.sim.warm_starts);
    EXPECT_EQ(a.sim.cold_starts, b.sim.cold_starts);
    EXPECT_EQ(a.sim.dropped, b.sim.dropped);
    EXPECT_EQ(a.sim.evictions, b.sim.evictions);
    EXPECT_EQ(a.sim.actual_exec_us, b.sim.actual_exec_us);
    EXPECT_EQ(a.sim.per_function, b.sim.per_function);
}

TEST(ElasticCheckpointCodec, RoundTripsARealRun)
{
    const ElasticCell cell = elasticGrid()[0];
    SweepReport<ElasticResult> report = runElasticSweepReport({cell}, 1);
    ASSERT_TRUE(report.allOk());
    const ElasticResult& result = report.cells[0].result;
    ASSERT_FALSE(result.timeline.empty());

    const std::string payload =
        encodeElasticCheckpointPayload("fig9 cell", result);
    std::string key;
    ElasticResult decoded;
    ASSERT_TRUE(decodeElasticCheckpointPayload(payload, &key, &decoded));
    EXPECT_EQ(key, "fig9 cell");
    expectSameElasticResult(result, decoded);
}

TEST(ElasticCheckpointCodec, RejectsTruncationAndKeyMismatch)
{
    const ElasticCell cell = elasticGrid()[0];
    SweepReport<ElasticResult> report = runElasticSweepReport({cell}, 1);
    ASSERT_TRUE(report.allOk());
    const std::string payload = encodeElasticCheckpointPayload(
        "a", report.cells[0].result);

    std::string key;
    ElasticResult decoded;
    EXPECT_FALSE(decodeElasticCheckpointPayload(
        payload.substr(0, payload.size() / 3), &key, &decoded));
    EXPECT_FALSE(decodeElasticCheckpointPayload(payload + " junk", &key,
                                                &decoded));
    EXPECT_FALSE(decodeElasticCheckpointPayload("", &key, &decoded));
}

TEST(ElasticFingerprint, SensitiveToControllerAndElasticKnobs)
{
    const std::vector<ElasticCell> grid = elasticGrid();
    EXPECT_EQ(elasticSweepFingerprint(grid),
              elasticSweepFingerprint(elasticGrid()));

    std::vector<ElasticCell> retargeted = elasticGrid();
    retargeted[0].controller.target_miss_speed = 2.0;
    EXPECT_NE(elasticSweepFingerprint(grid),
              elasticSweepFingerprint(retargeted));

    std::vector<ElasticCell> resized = elasticGrid();
    resized[1].elastic.initial_size_mb += 500;
    EXPECT_NE(elasticSweepFingerprint(grid),
              elasticSweepFingerprint(resized));

    std::vector<ElasticCell> lossy = elasticGrid();
    lossy[0].elastic.capacity_loss.push_back(
        {10 * kMinute, 20 * kMinute, 0.5});
    EXPECT_NE(elasticSweepFingerprint(grid),
              elasticSweepFingerprint(lossy));
}

TEST(ElasticFingerprint, SensitiveToOverloadGrowFrac)
{
    std::vector<ElasticCell> off = elasticGrid();
    std::vector<ElasticCell> on = elasticGrid();
    off[0].controller.overload_grow_frac = 0.0;
    on[0].controller.overload_grow_frac = 0.5;
    EXPECT_NE(elasticSweepFingerprint(off), elasticSweepFingerprint(on));
}

TEST(ElasticSweepResume, RestoresOverloadPressure)
{
    TempFile ckpt("pressure");
    const std::vector<ElasticCell> grid = {overloadedCell()};

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<ElasticResult> fresh =
        runElasticSweepReport(grid, 1, options);
    ASSERT_TRUE(fresh.allOk());

    options.resume = true;
    const SweepReport<ElasticResult> resumed =
        runElasticSweepReport(grid, 1, options);
    ASSERT_TRUE(resumed.allOk());
    ASSERT_EQ(resumed.restored, 1u);
    ASSERT_TRUE(resumed.cells[0].restored);

    const auto& expected = fresh.cells[0].result.timeline;
    const auto& actual = resumed.cells[0].result.timeline;
    ASSERT_EQ(actual.size(), expected.size());
    double peak = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].overload_pressure, expected[i].overload_pressure)
            << "period " << i;
        peak = std::max(peak, expected[i].overload_pressure);
    }
    EXPECT_GT(peak, 0.0);
}

TEST(ElasticSweepResume, RestoresEveryCellBitForBit)
{
    TempFile ckpt("resume");
    const std::vector<ElasticCell> grid = elasticGrid();

    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    const SweepReport<ElasticResult> first =
        runElasticSweepReport(grid, 2, options);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.restored, 0u);

    options.resume = true;
    const SweepReport<ElasticResult> resumed =
        runElasticSweepReport(grid, 2, options);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.restored, grid.size());
    EXPECT_FALSE(resumed.torn_tail);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(resumed.cells[i].restored);
        expectSameElasticResult(first.cells[i].result,
                                resumed.cells[i].result);
    }
}

TEST(ElasticSweepResume, RefusesACheckpointFromAnotherGrid)
{
    TempFile ckpt("refuse");
    SweepOptions options;
    options.checkpoint_path = ckpt.path();
    ASSERT_TRUE(runElasticSweepReport(elasticGrid(), 2, options).allOk());

    std::vector<ElasticCell> other = elasticGrid();
    other[0].elastic.control_period_us = 5 * kMinute;
    options.resume = true;
    EXPECT_THROW(runElasticSweepReport(other, 2, options),
                 std::runtime_error);
}

}  // namespace
}  // namespace faascache
