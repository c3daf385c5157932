/**
 * @file
 * Head-to-head platform experiments: vanilla OpenWhisk (10-minute TTL
 * keep-alive) versus FaasCache (Greedy-Dual keep-alive) on the same
 * server and workload (paper §7.2).
 *
 * Independent platform and cluster runs fan across a thread pool
 * through the one sweep driver (util/sweep_journal.h); results come
 * back in submission order, so sweep output is byte-identical
 * regardless of the worker count.
 */
#ifndef FAASCACHE_PLATFORM_EXPERIMENT_H_
#define FAASCACHE_PLATFORM_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/server.h"
#include "trace/trace.h"
#include "util/sweep_journal.h"

namespace faascache {

/** Results of one OpenWhisk-vs-FaasCache comparison. */
struct PlatformComparison
{
    PlatformResult openwhisk;  ///< TTL keep-alive
    PlatformResult faascache;  ///< Greedy-Dual keep-alive

    /** FaasCache warm starts over OpenWhisk warm starts. */
    double warmStartRatio() const;

    /** FaasCache served requests over OpenWhisk served requests. */
    double servedRatio() const;

    /** OpenWhisk mean latency over FaasCache mean latency. */
    double latencyImprovement() const;
};

/** Run one policy on a fresh server. */
PlatformResult runPlatform(const Trace& trace, PolicyKind kind,
                           const ServerConfig& server_config,
                           const PolicyConfig& policy_config = {});

/** One independent platform run of a sweep. */
struct PlatformCell
{
    /** Workload to replay (non-owning; must outlive the sweep). */
    const Trace* trace = nullptr;
    PolicyKind kind = PolicyKind::GreedyDual;
    ServerConfig server;
    PolicyConfig policy;

    /**
     * Stable cell identity for error reports. Leave empty to have the
     * runner derive "<trace>/<policy>/<memory>" (with a "#n" suffix on
     * duplicates).
     */
    std::string key;
};

/**
 * Run every cell on a fixed-size worker pool and return the results in
 * cell order (deterministic for any jobs; 0 = hardware concurrency):
 * runPlatformSweepReport() in strict mode, so the first cell failure,
 * if any, is rethrown.
 */
std::vector<PlatformResult> runPlatformSweep(
    const std::vector<PlatformCell>& cells, std::size_t jobs = 0);

/**
 * Effective per-cell keys of a platform sweep (cell.key or the derived
 * "<trace>/<policy>/<memory>MB" default, deduplicated with "#n").
 * Requires non-null traces.
 */
std::vector<std::string> platformCellKeys(
    const std::vector<PlatformCell>& cells);

/**
 * Harnessed flavour of runPlatformSweep(): every cell resolves to a
 * CellOutcome (ok | failed | timed_out | skipped) with watchdog
 * deadlines, bounded retry, checkpoint/resume (the PlatformResult
 * journal flavour, platform/experiment_checkpoint.h), and clean
 * external cancellation — one poisoned cell no longer aborts the
 * sweep.
 *
 * @throws std::invalid_argument for a malformed cell (null trace),
 *         naming the offending cell index.
 * @throws std::runtime_error when options.resume is set and the
 *         checkpoint cannot be read or belongs to a different grid.
 */
SweepReport<PlatformResult> runPlatformSweepReport(
    const std::vector<PlatformCell>& cells, std::size_t jobs = 0,
    const SweepOptions& options = {});

/** One independent cluster run of a sweep. */
struct ClusterCell
{
    /** Workload to replay (non-owning; must outlive the sweep). */
    const Trace* trace = nullptr;
    PolicyKind kind = PolicyKind::GreedyDual;
    ClusterConfig config;
    PolicyConfig policy;

    /**
     * Stable cell identity for checkpointing and error reports. Leave
     * empty to have the runner derive
     * "<trace>/<policy>/<servers>x<memory>" (with a "#n" suffix on
     * duplicates); set it explicitly when the grid varies knobs that
     * derivation cannot see (balancers, fault plans).
     */
    std::string key;
};

/**
 * Effective per-cell keys of a cluster sweep (cell.key or the derived
 * default, deduplicated with "#n"). Requires non-null traces.
 */
std::vector<std::string> clusterCellKeys(
    const std::vector<ClusterCell>& cells);

/**
 * Cluster flavour of runPlatformSweepReport(): fan independent
 * runCluster() cells across a worker pool under the crash-safety
 * harness, with the same deadline/retry/checkpoint/cancellation
 * contract and submission-order (byte-identical for any jobs)
 * results.
 *
 * @throws std::invalid_argument for a malformed cell (null trace),
 *         naming the offending cell index.
 * @throws std::runtime_error when options.resume is set and the
 *         checkpoint cannot be read or belongs to a different grid.
 */
SweepReport<ClusterResult> runClusterSweepReport(
    const std::vector<ClusterCell>& cells, std::size_t jobs = 0,
    const SweepOptions& options = {});

/**
 * Run the vanilla-OpenWhisk vs FaasCache comparison. The two runs are
 * independent and execute concurrently (`jobs` workers; 0 = hardware
 * concurrency, 1 = serial).
 */
PlatformComparison compareOpenWhiskVsFaasCache(
    const Trace& trace, const ServerConfig& server_config,
    const PolicyConfig& policy_config = {}, std::size_t jobs = 0);

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_EXPERIMENT_H_
