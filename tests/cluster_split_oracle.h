// Test-local oracle for fault-free cluster runs: route the trace by the
// balancer to independent Servers (every one keeps the full catalog, so
// function ids stay stable), each driven through begin/advanceTo/offer,
// and end every server at the fleet horizon — the trace's last arrival
// plus the queue timeout. No shards, no windows, no streaming cursors —
// what runCluster must reproduce byte for byte when no front-end
// machinery is armed.
#ifndef FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_
#define FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/policy_factory.h"
#include "platform/cluster.h"
#include "platform/server.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace faascache {

inline ClusterResult
runClusterSplitOracle(const Trace& trace, PolicyKind kind,
                      const ClusterConfig& config,
                      const PolicyConfig& policy_config = {})
{
    const std::size_t n = config.num_servers;
    const std::vector<Invocation>& invocations = trace.invocations();
    std::vector<std::unique_ptr<Server>> servers;
    for (std::size_t s = 0; s < n; ++s) {
        servers.push_back(std::make_unique<Server>(
            makePolicy(kind, policy_config), config.server));
        servers.back()->begin(trace.functions(), invocations.size() / n);
    }
    Rng rng(config.seed);
    for (std::size_t i = 0; i < invocations.size(); ++i) {
        const Invocation& inv = invocations[i];
        std::size_t target = 0;
        switch (config.balancing) {
          case LoadBalancing::Random:
            target = static_cast<std::size_t>(rng.uniformInt(n));
            break;
          case LoadBalancing::RoundRobin:
            target = i % n;
            break;
          case LoadBalancing::FunctionHash:
            target = static_cast<std::size_t>(
                Rng::hashMix(inv.function ^ config.seed) % n);
            break;
        }
        servers[target]->advanceTo(inv.arrival_us);
        servers[target]->offer(i, inv, inv.arrival_us);
    }

    const TimeUs last_arrival =
        invocations.empty() ? 0 : invocations.back().arrival_us;
    const TimeUs horizon = last_arrival + config.server.queue_timeout_us;
    ClusterResult result;
    for (const auto& server : servers)
        result.servers.push_back(server->finish(horizon));
    return result;
}

}  // namespace faascache

#endif  // FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_
