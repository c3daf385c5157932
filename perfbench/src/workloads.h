/**
 * @file
 * The benchmark's three workloads (see perfbench/NOTES.md for why each
 * was chosen) and the replay of each through its engine.
 *
 * Every workload is an offline replay of an Azure-shaped trace
 * (heavy-tailed inter-arrival times, small per-function memory) that is
 * generated from the seed, compiled to `.ftrace`, and handed to the
 * engine only as that file's mapping.
 */
#ifndef FAASCACHE_PERFBENCH_WORKLOADS_H_
#define FAASCACHE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "probes.h"
#include "trace/azure_model.h"
#include "trace/ftrace_format.h"

namespace faascache::perfbench {

enum class Workload
{
    /** simulateSource with Greedy-Dual, pool far below the working set. */
    SimGd,

    /** Server::run of one overloaded invoker under OpenWhisk's TTL. */
    ServerTtl,

    /** runCluster(ShardedWorkload) with GD, faults and failover armed. */
    ClusterSharded,
};

/** Workload sizes: Full is what the benchmark times, Tiny is for tests. */
enum class Scale
{
    Full,
    Tiny,
};

/** The command-line name ("sim_gd", "server_ttl", "cluster_sharded"). */
const char* workloadName(Workload workload);

/** @return false when `name` names no workload. */
bool parseWorkload(const std::string& name, Workload* workload);

/**
 * Independent traces one run of `workload` replays. The cost of a single
 * Azure-shaped trace depends on which functions its seed makes heavy
 * hitters; a run replays several independently seeded traces (parts) of
 * the same shape so that its per-invocation cost barely depends on the
 * run's seed.
 */
std::size_t workloadParts(Workload workload, Scale scale);

/** Seed of part `part` of a run with seed `seed`. */
std::uint64_t partSeed(std::uint64_t seed, std::size_t part);

/** The trace model of one part, deterministic in its part seed. */
AzureModelConfig workloadModel(Workload workload, std::uint64_t seed,
                               Scale scale);

/**
 * Generate `model` and compile it to `path` in one streaming pass.
 * @param generator When set, times the generator's cursor calls; the
 *        generator's construction (its counting pre-pass) is added to
 *        generator->next as one more span.
 * @return Invocations written.
 */
std::size_t compileWorkload(const AzureModelConfig& model,
                            const std::string& path,
                            SourceProbeTotals* generator = nullptr);

/** Probes attached to one replay; a null member leaves that layer bare. */
struct Probes
{
    SourceProbeTotals* source = nullptr;
    PolicyProbeTotals* policy = nullptr;
    ShardProbeSink* shards = nullptr;
};

/** What one replay produced. */
struct ReplayOutcome
{
    /** The result in the repo's checkpoint codec: the SimResult codec
     *  for sim_gd, PlatformResult for server_ttl, ClusterResult for
     *  cluster_sharded. */
    std::string payload;

    /** Invocations the engine accounted for (served, dropped, shed or
     *  failed); equals the stream length when the replay conserved
     *  requests. */
    std::int64_t resolved = 0;

    /** @name Simulated statistics (model outputs, context only)
     * Latency percentiles are NaN for the simulator, which has no
     * queueing model. @{ */
    double cold_start_pct = 0.0;
    double drop_pct = 0.0;
    double latency_p50_s = 0.0;
    double latency_p99_s = 0.0;
    /** @} */

    /** Cluster front-end failovers + retries (0 elsewhere). */
    std::int64_t mail = 0;

    /** @name Host cost of the engine call alone
     * Trace cursor creation before it and result encoding after it are
     * excluded. @{ */
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;    ///< whole process, all threads
    double peak_rss_mb = 0.0;   ///< VmHWM after the call, MB
    bool rss_reset = false;     ///< VmHWM was reset before the call
    /** @} */
};

/**
 * Replay `workload` over `region`.
 * @param shards Shard threads for cluster_sharded (ignored otherwise).
 * @param seed   The part's seed (cluster_sharded derives its fault plan's
 *               seed from it).
 */
ReplayOutcome replayWorkload(Workload workload, Scale scale,
                             const std::shared_ptr<FtraceRegion>& region,
                             std::size_t shards, std::uint64_t seed,
                             const Probes& probes = {});

}  // namespace faascache::perfbench

#endif  // FAASCACHE_PERFBENCH_WORKLOADS_H_
