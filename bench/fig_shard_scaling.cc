/**
 * @file
 * Sharded-cluster scaling bench (DESIGN.md §4i, PR 10).
 *
 * Replays one Azure-shaped workload — compiled once to `.ftrace` and
 * fanned out through a single shared FtraceRegion mapping — through the
 * windowed sharded cluster engine at several shard counts, with the
 * full front-end armed (fault plan, retry budget, circuit breakers), and
 * reports wall-clock, peak RSS, and the cluster checkpoint payload per
 * shard count. The headline claims this bench defends:
 *
 *  - results are byte-identical for every shard count (the payload
 *    comparison is a hard failure, not a statistic), and
 *  - on a machine with cores to spare, wall-clock scales near-linearly
 *    with shards while peak RSS stays flat (one mapping, O(chunk)
 *    resident trace, per-shard state is a slice of the fleet).
 *
 * Wall-clock speedups are only meaningful when the machine can actually
 * run the shard threads in parallel; the JSON therefore records
 * available_cores, and scripts/run_benchmarks.sh gates the speedup
 * assertion on it. RSS and byte-identity are asserted everywhere.
 *
 * Usage:
 *   fig_shard_scaling [--smoke] [--out PATH]
 *
 * Full mode regenerates the committed BENCH_PR10.json via
 * scripts/run_benchmarks.sh: a 50k-function, 256-invoker, 14-day-shaped
 * (diurnal) workload. --smoke shrinks the workload for the CI gate.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "platform/cluster.h"
#include "platform/experiment_checkpoint.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/ftrace_format.h"
#include "trace/generated_source.h"

using namespace faascache;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reset the kernel's peak-RSS high-water mark for this process.
 *  @return false when /proc/self/clear_refs is unavailable. */
bool
resetPeakRss()
{
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    std::fclose(f);
    return ok;
}

/** Peak RSS in MB: VmHWM from /proc/self/status (resettable), falling
 *  back to the monotonic getrusage high-water mark. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage usage
    {
    };
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Write `bytes` to `path`, replacing it. @return false on failure. */
bool
writeFileBytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out.flush());
}

/** Whether the file at `path` holds exactly `bytes`, compared in 1 MB
 *  chunks so the file is never resident as a whole. */
bool
fileHoldsBytes(const std::string& path, const std::string& bytes)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> chunk(1 << 20);
    std::size_t offset = 0;
    while (in) {
        in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const auto got = static_cast<std::size_t>(in.gcount());
        if (got > bytes.size() - offset ||
            std::memcmp(chunk.data(), bytes.data() + offset, got) != 0)
            return false;
        offset += got;
    }
    return in.eof() && offset == bytes.size();
}

struct Row
{
    std::size_t shards = 0;
    double wall_s = 0.0;
    double peak_rss_mb = 0.0;
    bool rss_resettable = false;
    bool payload_matches = true;
};

AzureModelConfig
workloadConfig(bool smoke)
{
    AzureModelConfig model;
    model.seed = deriveCellSeed(2026, 10);
    if (smoke) {
        model.num_functions = 600;
        model.duration_us = 20 * kMinute;
        model.iat_median_sec = 60.0;
    } else {
        // The headline workload: 50k functions over a 14-day diurnal
        // span. Per-function rates are kept low so the invocation count
        // stays in the low millions — the scaling story is about
        // per-event simulation work, not raw stream length.
        model.num_functions = 50'000;
        model.duration_us = 14 * 24 * kHour;
        model.iat_median_sec = 8.0 * 3600.0;
        model.diurnal = true;
    }
    model.iat_sigma = 1.2;
    model.max_rate_per_sec = 0.5;
    model.mem_median_mb = 96.0;
    model.mem_sigma = 0.7;
    model.mem_max_mb = 1024.0;
    model.warm_median_ms = 250.0;
    model.warm_sigma = 1.0;
    model.name = smoke ? "shard-scaling-smoke" : "shard-scaling-14d";
    return model;
}

/** Fleet + armed front end (faults, budget, breakers): the sharded
 *  engine in windows of base_backoff_us, not a fault-free fleet's one
 *  whole-run window. */
ClusterConfig
clusterConfig(bool smoke, TimeUs duration)
{
    ClusterConfig config;
    config.seed = 7;
    config.num_servers = smoke ? 16 : 256;
    config.server.cores = 4;
    config.server.memory_mb = 2048;
    config.balancing = LoadBalancing::FunctionHash;
    // A light but non-trivial chaos plan spread over the run: flaky
    // spawns throughout plus a couple of crash/restart cycles, so the
    // cross-shard failover/retry machinery is genuinely exercised.
    config.faults.spawn_failure_prob = 0.02;
    config.faults.spawn_retry_delay_us = 100 * kMillisecond;
    config.faults.crashes.push_back(
        {1, duration / 4, 2 * kMinute});
    config.faults.crashes.push_back(
        {3, duration / 2, 5 * kMinute});
    config.failover.retry_budget.ratio = 0.25;
    config.failover.retry_budget.burst = 32;
    config.failover.breaker.failure_threshold = 16;
    config.failover.breaker.open_duration_us = 10 * kSecond;
    return config;
}

void
writeJson(std::ostream& out, bool smoke, unsigned available_cores,
          std::size_t invocations, std::size_t num_servers,
          bool identical_payloads, const std::vector<Row>& rows)
{
    char buffer[64];
    const auto num = [&](double value) {
        std::snprintf(buffer, sizeof buffer, "%.6g", value);
        return std::string(buffer);
    };
    const double base_wall = rows.empty() ? 0.0 : rows.front().wall_s;
    out << "{\n";
    out << "  \"schema\": \"faascache-bench-pr10-v1\",\n";
    out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    out << "  \"available_cores\": " << available_cores << ",\n";
    out << "  \"invocations\": " << invocations << ",\n";
    out << "  \"num_servers\": " << num_servers << ",\n";
    out << "  \"identical_payloads\": "
        << (identical_payloads ? "true" : "false") << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        const double speedup =
            row.wall_s > 0.0 ? base_wall / row.wall_s : 0.0;
        out << "    {\"shards\": " << row.shards
            << ", \"wall_s\": " << num(row.wall_s)
            << ", \"peak_rss_mb\": " << num(row.peak_rss_mb)
            << ", \"rss_resettable\": "
            << (row.rss_resettable ? "true" : "false")
            << ", \"speedup_vs_1\": " << num(speedup) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--smoke] [--out PATH]\n";
            return 2;
        }
    }

    const AzureModelConfig model = workloadConfig(smoke);
    const ClusterConfig base = clusterConfig(smoke, model.duration_us);
    const std::vector<std::size_t> shard_counts =
        smoke ? std::vector<std::size_t>{1, 2, 4}
              : std::vector<std::size_t>{1, 2, 4, 8};
    const unsigned available_cores = std::thread::hardware_concurrency();

    // Compile the workload to .ftrace once by streaming generation
    // (untimed), then share ONE mapping across every run and every
    // shard: each shard thread gets its own cheap cursor.
    const std::string path = "/tmp/faascache_shard_scaling.ftrace";
    std::cerr << "fig_shard_scaling: compiling workload...\n";
    std::size_t invocations = 0;
    {
        const auto source = makeAzureSource(model);
        invocations = writeFtraceFile(path, *source);
    }
    std::cerr << "fig_shard_scaling: " << invocations
              << " invocations, fleet of " << base.num_servers
              << ", cores available: " << available_cores << "\n";

    const std::shared_ptr<FtraceRegion> region = FtraceRegion::open(path);
    ShardedWorkload workload;
    workload.make_full = [&region] { return region->makeCursor(); };

    // The first row's payload (about 250 MB on the full workload) is
    // the reference every later row must match byte for byte. It waits
    // in a file, not in memory, so it does not inflate later rows'
    // peak RSS.
    const std::string reference_path =
        "/tmp/faascache_shard_scaling.payload";
    std::vector<Row> rows;
    bool identical = true;
    for (std::size_t shards : shard_counts) {
        std::cerr << "fig_shard_scaling: shards=" << shards << "...\n";
        Row row;
        row.shards = shards;
        row.rss_resettable = resetPeakRss();
        const double start = nowSeconds();
        ClusterConfig config = base;
        config.shards = shards;
        const ClusterResult result =
            runCluster(workload, PolicyKind::GreedyDual, config);
        row.wall_s = nowSeconds() - start;
        row.peak_rss_mb = peakRssMb();
        const std::string payload =
            encodeClusterCheckpointPayload("scaling", result);
        if (rows.empty()) {
            if (!writeFileBytes(reference_path, payload)) {
                std::cerr << "fig_shard_scaling: cannot write "
                          << reference_path << "\n";
                std::remove(path.c_str());
                return 1;
            }
        } else {
            row.payload_matches = fileHoldsBytes(reference_path, payload);
            identical = identical && row.payload_matches;
        }
        std::fprintf(stderr,
                     "  shards=%zu  wall %7.2fs  peak rss %7.1f MB  %s\n",
                     shards, row.wall_s, row.peak_rss_mb,
                     row.payload_matches ? "payload ok"
                                         : "PAYLOAD MISMATCH");
        rows.push_back(row);
    }
    std::remove(path.c_str());
    std::remove(reference_path.c_str());

    if (out_path.empty()) {
        writeJson(std::cout, smoke, available_cores, invocations,
                  base.num_servers, identical, rows);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "fig_shard_scaling: cannot write " << out_path
                      << "\n";
            return 1;
        }
        writeJson(out, smoke, available_cores, invocations,
                  base.num_servers, identical, rows);
        std::cerr << "fig_shard_scaling: wrote " << out_path << "\n";
    }
    if (!identical) {
        std::cerr << "fig_shard_scaling: FAIL: payloads differ across "
                     "shard counts\n";
        return 1;
    }
    return 0;
}
