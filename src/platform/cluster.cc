#include "platform/cluster.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "trace/invocation_source.h"

namespace faascache {

void
FailoverConfig::validate() const
{
    if (max_retries < 0) {
        throw std::invalid_argument(
            "FailoverConfig: max_retries must be >= 0, got " +
            std::to_string(max_retries));
    }
    if (base_backoff_us <= 0) {
        throw std::invalid_argument(
            "FailoverConfig: base_backoff_us must be > 0, got " +
            std::to_string(base_backoff_us));
    }
    if (request_timeout_us <= 0) {
        throw std::invalid_argument(
            "FailoverConfig: request_timeout_us must be > 0, got " +
            std::to_string(request_timeout_us));
    }
    if (backoff_jitter_frac < 0.0 || backoff_jitter_frac > 1.0) {
        throw std::invalid_argument(
            "FailoverConfig: backoff_jitter_frac must be in [0, 1], "
            "got " +
            std::to_string(backoff_jitter_frac));
    }
    retry_budget.validate();
    breaker.validate();
}

void
ClusterConfig::validate() const
{
    if (num_servers == 0) {
        throw std::invalid_argument(
            "ClusterConfig: num_servers must be > 0");
    }
    if (shards == 0) {
        throw std::invalid_argument("ClusterConfig: shards must be >= 1");
    }
    server.validate();
    faults.validate(num_servers);
    failover.validate();
    if (failover.shed_queue_depth > server.queue_capacity) {
        throw std::invalid_argument(
            "ClusterConfig: failover.shed_queue_depth (" +
            std::to_string(failover.shed_queue_depth) +
            ") must not exceed server.queue_capacity (" +
            std::to_string(server.queue_capacity) +
            "); a deeper mark could never trigger");
    }
}

std::int64_t
ClusterResult::warmStarts() const
{
    std::int64_t total = 0;
    for (const auto& s : servers)
        total += s.warm_starts;
    return total;
}

std::int64_t
ClusterResult::coldStarts() const
{
    std::int64_t total = 0;
    for (const auto& s : servers)
        total += s.cold_starts;
    return total;
}

std::int64_t
ClusterResult::dropped() const
{
    std::int64_t total = 0;
    for (const auto& s : servers)
        total += s.dropped();
    return total;
}

RobustnessCounters
ClusterResult::robustness() const
{
    RobustnessCounters total;
    for (const auto& s : servers)
        total += s.robustness;
    return total;
}

OverloadCounters
ClusterResult::overload() const
{
    OverloadCounters total;
    for (const auto& s : servers)
        total += s.overload;
    return total;
}

double
ClusterResult::warmPercent() const
{
    const std::int64_t served = warmStarts() + coldStarts();
    if (served == 0)
        return 0.0;
    return 100.0 * static_cast<double>(warmStarts()) /
        static_cast<double>(served);
}

double
ClusterResult::meanLatencySec() const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& s : servers) {
        for (double v : s.latencies_sec)
            sum += v;
        count += s.latencies_sec.size();
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

ClusterResult
runCluster(const Trace& trace, PolicyKind kind, const ClusterConfig& config,
           const PolicyConfig& policy_config)
{
    // Every shard replays the trace through its own non-owning cursor.
    ShardedWorkload workload;
    workload.make_full = [&trace] {
        return std::make_unique<TraceSource>(trace);
    };
    return runCluster(workload, kind, config, policy_config);
}

}  // namespace faascache
