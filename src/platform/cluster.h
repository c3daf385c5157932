/**
 * @file
 * Cluster-level experiments (paper §9 "Cluster-level analysis"): a
 * front-end load balancer dispatching function invocations to a fleet
 * of invoker servers, each running its own keep-alive policy instance.
 *
 * The paper deliberately evaluates single servers but discusses how
 * load-balancing affects keep-alive: a stateful policy that pins a
 * function to a subset of servers concentrates its temporal locality
 * (better keep-alive), while randomized balancing spreads each
 * function's invocations thin. This module makes that trade-off
 * measurable.
 *
 * Beyond the paper, the front end is health-aware: a ClusterConfig may
 * carry a FaultPlan (fault_injection.h) of crashes and stochastic
 * faults. The front end then tracks per-server health, fails
 * invocations over to healthy servers, re-dispatches the work a crash
 * spills with bounded retries and exponential backoff under a
 * per-request timeout budget, and sheds load when every healthy
 * server's queue crosses a high-water mark.
 *
 * One engine runs every cluster (cluster_shard.h, DESIGN.md §4i): the
 * fleet is partitioned into config.shards worker threads that advance
 * in lookahead windows of failover.base_backoff_us and exchange
 * cross-shard effects at window boundaries. With no front-end
 * machinery armed (no faults, no shed mark, no retry budget, no
 * breakers) nothing crosses shards, and one window spans the whole
 * run. Every server's run ends at the fleet horizon: the fleet's last
 * event plus the queue timeout. Results never depend on the shard
 * count.
 */
#ifndef FAASCACHE_PLATFORM_CLUSTER_H_
#define FAASCACHE_PLATFORM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/policy_factory.h"
#include "platform/fault_injection.h"
#include "platform/overload/circuit_breaker.h"
#include "platform/overload/retry_budget.h"
#include "platform/server.h"
#include "trace/trace.h"

namespace faascache {

/** How the front end picks a server for each invocation. */
enum class LoadBalancing
{
    /** Uniformly random server per invocation (seeded). */
    Random,

    /** Strict rotation across servers per invocation. */
    RoundRobin,

    /** Function-affine: hash the function id to one server, keeping
     *  each function's temporal locality on a single invoker. */
    FunctionHash,
};

/** Failure-handling knobs of the health-aware front end. */
struct FailoverConfig
{
    /** Re-dispatch attempts per invocation after its work is lost to a
     *  crash or no server can accept it. */
    int max_retries = 2;

    /** First re-dispatch delay; doubles per attempt (exponential
     *  backoff). */
    TimeUs base_backoff_us = 100 * kMillisecond;

    /** Per-request budget from original arrival; a re-dispatch that
     *  would land beyond it fails the request instead. */
    TimeUs request_timeout_us = 60 * kSecond;

    /**
     * Admission-control high-water mark: when every healthy server's
     * queue is at least this deep, new arrivals are shed instead of
     * buffered (graceful degradation instead of queue collapse).
     * 0 disables admission control. Must not exceed the per-server
     * queue_capacity (a deeper mark could never trigger).
     */
    std::size_t shed_queue_depth = 0;

    /**
     * Jitter fraction on the retry backoff: each re-dispatch delay is
     * stretched by a seeded, per-(request, attempt) uniform amount in
     * [0, backoff * frac]. Decorrelates the retry herd a crash spills —
     * without it every flushed request re-dispatches at the same
     * instant. In [0, 1]; 0 restores the synchronized backoff.
     */
    double backoff_jitter_frac = 0.5;

    /** Per-server retry token bucket (ratio 0 = unlimited retries). */
    RetryBudgetConfig retry_budget;

    /** Per-server circuit breaker (threshold 0 = disabled). */
    CircuitBreakerConfig breaker;

    /** Check invariants. @throws std::invalid_argument. */
    void validate() const;
};

/** Cluster parameters. */
struct ClusterConfig
{
    /** Number of identical invoker servers. */
    std::size_t num_servers = 4;

    /** Per-server configuration. */
    ServerConfig server;

    /** Dispatch policy. */
    LoadBalancing balancing = LoadBalancing::FunctionHash;

    /** Seed for randomized balancing. */
    std::uint64_t seed = 1;

    /** Injected faults; an empty plan (the default) injects none. */
    FaultPlan faults;

    /** Front-end failure handling (inert without faults, shed mark,
     *  retry budget or breakers). */
    FailoverConfig failover;

    /**
     * Worker-thread shards the invoker fleet is partitioned into
     * (DESIGN.md §4i): contiguous server ranges per shard, clamped to
     * one shard per server. Purely an execution grouping — results are
     * byte-identical for every value. Runs with front-end machinery
     * synchronize the shards in windows of failover.base_backoff_us,
     * so a dispatch that fails over to another server lands there at
     * the next window boundary. Must be >= 1.
     */
    std::size_t shards = 1;

    /** Check invariants of the whole tree (servers, faults,
     *  failover). @throws std::invalid_argument. */
    void validate() const;
};

/** Aggregated cluster outcome. */
struct ClusterResult
{
    /** Per-server results, index = server id. */
    std::vector<PlatformResult> servers;

    /**
     * @name Front-end robustness accounting
     * All zero unless front-end machinery is armed.
     * @{
     */

    /** Re-dispatch attempts scheduled after crashes or full outages. */
    std::int64_t retries = 0;

    /** Invocations served by a server other than the balancer's
     *  primary choice (health-aware re-routing). */
    std::int64_t failovers = 0;

    /** Arrivals shed by admission control (every healthy server over
     *  the high-water mark). */
    std::int64_t shed_requests = 0;

    /** Invocations abandoned after exhausting the retry attempts or
     *  the per-request timeout. */
    std::int64_t failed_requests = 0;

    /** Retries abandoned because the provoking server's retry token
     *  bucket was empty (also counted in failed_requests). */
    std::int64_t retry_budget_exhausted = 0;

    /** Dispatch probes skipped because a network partition made the
     *  server unreachable from the front end. */
    std::int64_t partition_unreachable = 0;

    /** Circuit-breaker transitions across the fleet. */
    std::int64_t breaker_opens = 0;
    std::int64_t breaker_closes = 0;
    std::int64_t breaker_probes = 0;
    /** @} */

    std::int64_t warmStarts() const;
    std::int64_t coldStarts() const;
    std::int64_t dropped() const;

    /** Fleet-wide fault accounting summed over servers. */
    RobustnessCounters robustness() const;

    /** Fleet-wide overload accounting summed over servers. */
    OverloadCounters overload() const;

    /** Total server downtime across the fleet. */
    TimeUs unavailabilityUs() const { return robustness().downtime_us; }

    /** Warm starts / served across the cluster, in percent. */
    double warmPercent() const;

    /** Mean user-visible latency across all served invocations, s. */
    double meanLatencySec() const;
};

/**
 * Factory producing a fresh, independent cursor over the same
 * invocation stream. Every cursor must yield the identical sequence
 * (same catalog object contents, same arrivals); the sharded engine
 * hands one to each worker thread so shards never contend on a shared
 * cursor position. FtraceRegion::makeCursor() and the generated-source
 * builders are the canonical factories.
 */
using SourceFactory =
    std::function<std::unique_ptr<InvocationSource>()>;

/** A workload the sharded cluster can fan out: `make_full` (required)
 *  opens one cursor over the whole stream per shard. */
struct ShardedWorkload
{
    SourceFactory make_full;
};

/**
 * Replay a re-openable stream through the cluster with config.shards
 * worker threads, each owning a contiguous range of servers and
 * replaying the stream through its own cursor. Every invocation ends
 * in exactly one of: served on some server, dropped by a server, shed
 * by admission control, or failed after retries. Peak memory is
 * O(catalog + pending work) per shard.
 * @throws std::runtime_error when the stream's arrivals go backwards
 *         or name a function outside the catalog.
 */
ClusterResult runCluster(const ShardedWorkload& workload, PolicyKind kind,
                         const ClusterConfig& config,
                         const PolicyConfig& policy_config = {});

/** Replay a materialized trace: runCluster(ShardedWorkload) over one
 *  TraceSource cursor per shard. */
ClusterResult runCluster(const Trace& trace, PolicyKind kind,
                         const ClusterConfig& config,
                         const PolicyConfig& policy_config = {});

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_CLUSTER_H_
