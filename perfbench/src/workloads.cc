#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/experiment_checkpoint.h"
#include "platform/server.h"
#include "sim/simulator.h"
#include "sim/sweep_checkpoint.h"
#include "sim/sweep_runner.h"
#include "trace/generated_source.h"
#include "util/stats.h"

namespace faascache::perfbench {

namespace {

/** Stable per-workload keys for deriving seeds from the run's seed. */
std::uint64_t
streamKey(Workload workload)
{
    switch (workload) {
    case Workload::SimGd:
        return 1;
    case Workload::ServerTtl:
        return 2;
    case Workload::ClusterSharded:
        return 3;
    }
    return 0;
}

/** Per-function footprints as in the Azure trace: memory is reported
 *  per app and split across its functions, so tens to a few hundred MB. */
void
smallFunctionMemory(AzureModelConfig& model)
{
    model.mem_median_mb = 64.0;
    model.mem_sigma = 0.7;
    model.mem_max_mb = 512.0;
}

SimulatorConfig
simConfig(Scale scale)
{
    SimulatorConfig config;
    config.memory_mb = scale == Scale::Full ? 6 * 1024.0 : 600.0;
    return config;
}

/** Vanilla OpenWhisk (Fig 8): TTL with oldest-created pressure victims. */
PolicyConfig
openWhiskPolicy()
{
    PolicyConfig config;
    config.ttl_victim_order = TtlVictimOrder::OldestCreated;
    return config;
}

/** The default cold_start_cpu_slots (1): with 2, a cold request facing
 *  one free core is skipped by every drain and the drain's cost swings
 *  with the queue's make-up from seed to seed (perfbench/NOTES.md). */
ServerConfig
serverConfig(Scale scale)
{
    ServerConfig config;
    config.cores = scale == Scale::Full ? 16 : 4;
    config.memory_mb = scale == Scale::Full ? 8 * 1024.0 : 1024.0;
    return config;
}

/** The fleet and armed front end of bench/fig_shard_scaling, scaled
 *  down: faults, retry budget and breakers force the windowed engine. */
ClusterConfig
clusterConfig(Scale scale, std::uint64_t seed, TimeUs duration)
{
    ClusterConfig config;
    config.seed = 7;
    config.num_servers = scale == Scale::Full ? 256 : 8;
    config.server.cores = 4;
    config.server.memory_mb = 2048;
    config.balancing = LoadBalancing::FunctionHash;
    config.faults.seed = deriveCellSeed(seed, 100);
    config.faults.spawn_failure_prob = 0.02;
    config.faults.spawn_retry_delay_us = 100 * kMillisecond;
    config.faults.crashes.push_back({1, duration / 4, 2 * kMinute});
    config.faults.crashes.push_back({3, duration / 2, 5 * kMinute});
    config.failover.retry_budget.ratio = 0.25;
    config.failover.retry_budget.burst = 32;
    config.failover.breaker.failure_threshold = 16;
    config.failover.breaker.open_duration_us = 10 * kSecond;
    return config;
}

/** Reset the kernel's peak-RSS mark (VmHWM) for this process.
 *  @return false when /proc/self/clear_refs is unavailable. */
bool
resetPeakRss()
{
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** VmHWM in MB, or NaN when /proc/self/status does not report it. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return std::nan("");
}

/** Times the engine call alone, so result encoding stays outside. */
class EngineTimer
{
  public:
    explicit EngineTimer(ReplayOutcome& out) : out_(&out)
    {
        out_->rss_reset = resetPeakRss();
        cpu_start_ = processCpuNs();
        wall_start_ = wallNs();
    }

    void stop()
    {
        out_->wall_ns = wallNs() - wall_start_;
        out_->cpu_ns = processCpuNs() - cpu_start_;
        out_->peak_rss_mb = peakRssMb();
    }

  private:
    ReplayOutcome* out_;
    std::int64_t wall_start_ = 0;
    std::int64_t cpu_start_ = 0;
};

double
percent(std::int64_t part, std::int64_t whole)
{
    return whole > 0
        ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
        : 0.0;
}

ReplayOutcome
replaySim(Scale scale, InvocationSource& source, const Probes& probes)
{
    std::unique_ptr<KeepAlivePolicy> policy =
        makePolicy(PolicyKind::GreedyDual);
    if (probes.policy != nullptr)
        policy = std::make_unique<ProbedPolicy>(std::move(policy),
                                                *probes.policy);
    ReplayOutcome out;
    EngineTimer timer(out);
    const SimResult result =
        simulateSource(source, std::move(policy), simConfig(scale));
    timer.stop();
    out.payload = encodeCheckpointPayload("sim_gd", result);
    out.resolved = result.total();
    out.cold_start_pct = result.coldStartPercent();
    out.drop_pct = 100.0 * result.dropFraction();
    out.latency_p50_s = std::nan("");
    out.latency_p99_s = std::nan("");
    return out;
}

ReplayOutcome
replayServer(Scale scale, InvocationSource& source, const Probes& probes)
{
    std::unique_ptr<KeepAlivePolicy> policy =
        makePolicy(PolicyKind::Ttl, openWhiskPolicy());
    if (probes.policy != nullptr)
        policy = std::make_unique<ProbedPolicy>(std::move(policy),
                                                *probes.policy);
    Server server(std::move(policy), serverConfig(scale));
    ReplayOutcome out;
    EngineTimer timer(out);
    const PlatformResult result = server.run(source);
    timer.stop();
    out.payload = encodePlatformCheckpointPayload("server_ttl", result);
    out.resolved = result.total();
    out.cold_start_pct = result.coldStartPercent();
    out.drop_pct = result.dropPercent();
    const Summary latency = result.latencySummary();
    out.latency_p50_s = latency.p50;
    out.latency_p99_s = latency.p99;
    return out;
}

ReplayOutcome
replayCluster(Scale scale, const std::shared_ptr<FtraceRegion>& region,
              std::size_t shards, std::uint64_t seed, const Probes& probes)
{
    ShardedWorkload workload;
    workload.make_full = [region] { return region->makeCursor(); };
    if (probes.shards != nullptr)
        workload.make_full =
            probedShardFactory(std::move(workload.make_full),
                               *probes.shards);
    const TimeUs duration =
        workloadModel(Workload::ClusterSharded, 0, scale).duration_us;
    ClusterConfig config = clusterConfig(scale, seed, duration);
    config.shards = shards;

    ReplayOutcome out;
    EngineTimer timer(out);
    const ClusterResult result =
        runCluster(workload, PolicyKind::GreedyDual, config);
    timer.stop();
    out.payload = encodeClusterCheckpointPayload("cluster_sharded", result);
    std::int64_t served = 0;
    std::int64_t dropped = result.shed_requests + result.failed_requests;
    std::vector<double> latencies;
    for (const PlatformResult& server : result.servers) {
        served += server.served();
        dropped += server.dropped();
        latencies.insert(latencies.end(), server.latencies_sec.begin(),
                         server.latencies_sec.end());
    }
    out.resolved = served + dropped;
    out.cold_start_pct = percent(result.coldStarts(), served);
    out.drop_pct = percent(dropped, served + dropped);
    const Summary latency = summarize(std::move(latencies));
    out.latency_p50_s = latency.p50;
    out.latency_p99_s = latency.p99;
    out.mail = result.failovers + result.retries;
    return out;
}

}  // namespace

const char*
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::SimGd:
        return "sim_gd";
    case Workload::ServerTtl:
        return "server_ttl";
    case Workload::ClusterSharded:
        return "cluster_sharded";
    }
    return "?";
}

bool
parseWorkload(const std::string& name, Workload* workload)
{
    for (Workload w : {Workload::SimGd, Workload::ServerTtl,
                       Workload::ClusterSharded}) {
        if (name == workloadName(w)) {
            *workload = w;
            return true;
        }
    }
    return false;
}

std::size_t
workloadParts(Workload workload, Scale scale)
{
    if (scale == Scale::Tiny)
        return 1;
    return workload == Workload::ClusterSharded ? 4 : 16;
}

std::uint64_t
partSeed(std::uint64_t seed, std::size_t part)
{
    return deriveCellSeed(seed, 1000 + part);
}

AzureModelConfig
workloadModel(Workload workload, std::uint64_t seed, Scale scale)
{
    const bool full = scale == Scale::Full;
    AzureModelConfig model;
    model.seed = deriveCellSeed(seed, streamKey(workload));
    model.name = workloadName(workload);
    switch (workload) {
    case Workload::SimGd:
        model.num_functions = full ? 400 : 40;
        model.duration_us = 10 * kMinute;
        model.iat_median_sec = 30.0;
        model.max_rate_per_sec = 4.0;
        smallFunctionMemory(model);
        break;
    case Workload::ServerTtl:
        // Few, hot, short functions: their warm containers fit in memory,
        // so cores are the bottleneck and the offered load overruns them.
        model.num_functions = full ? 100 : 30;
        model.duration_us = 10 * kMinute;
        model.iat_median_sec = 1.0;
        model.max_rate_per_sec = 4.0;
        model.warm_median_ms = 80.0;
        smallFunctionMemory(model);
        break;
    case Workload::ClusterSharded:
        // Low per-function rates over a diurnal day, as in
        // bench/fig_shard_scaling, with a catalog small enough that
        // generation (O(functions x minutes)) stays a minor cost.
        model.num_functions = full ? 3000 : 100;
        model.duration_us = full ? 24 * kHour : 30 * kMinute;
        model.iat_median_sec = full ? 3600.0 : 60.0;
        model.iat_sigma = 1.2;
        model.max_rate_per_sec = 0.5;
        model.diurnal = full;
        model.mem_median_mb = 96.0;
        model.mem_sigma = 0.7;
        model.mem_max_mb = 1024.0;
        model.warm_median_ms = 250.0;
        model.warm_sigma = 1.0;
        break;
    }
    return model;
}

std::size_t
compileWorkload(const AzureModelConfig& model, const std::string& path,
                SourceProbeTotals* generator)
{
    if (generator == nullptr) {
        const std::unique_ptr<InvocationSource> source =
            makeAzureSource(model);
        return writeFtraceFile(path, *source);
    }
    const std::int64_t start = wallNs();
    const std::unique_ptr<InvocationSource> source = makeAzureSource(model);
    generator->next.add(wallNs() - start);
    ProbedSource probed(*source, *generator);
    return writeFtraceFile(path, probed);
}

ReplayOutcome
replayWorkload(Workload workload, Scale scale,
               const std::shared_ptr<FtraceRegion>& region,
               std::size_t shards, std::uint64_t seed, const Probes& probes)
{
    if (workload == Workload::ClusterSharded)
        return replayCluster(scale, region, shards, seed, probes);
    const std::unique_ptr<FtraceCursor> cursor = region->makeCursor();
    std::optional<ProbedSource> probed;
    InvocationSource* source = cursor.get();
    if (probes.source != nullptr) {
        probed.emplace(*cursor, *probes.source);
        source = &*probed;
    }
    return workload == Workload::SimGd ? replaySim(scale, *source, probes)
                                       : replayServer(scale, *source, probes);
}

}  // namespace faascache::perfbench
