// Test-local oracle for fault-free cluster runs: split the trace by the
// balancer into per-server sub-traces (every one keeps the full
// catalog, so function ids stay stable) and replay each on a fresh,
// independent Server. No shards, no windows, no streaming filters —
// what runCluster must reproduce byte for byte when no front-end
// machinery is armed.
#ifndef FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_
#define FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_

#include <cstddef>
#include <string>
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
    std::vector<Trace> shares(n);
    for (std::size_t s = 0; s < n; ++s) {
        shares[s].setName(trace.name() + "-server" + std::to_string(s));
        for (const auto& fn : trace.functions())
            shares[s].addFunction(fn);
    }
    Rng rng(config.seed);
    for (std::size_t i = 0; i < trace.invocations().size(); ++i) {
        const Invocation& inv = trace.invocations()[i];
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
        shares[target].addInvocation(inv.function, inv.arrival_us);
    }

    ClusterResult result;
    for (std::size_t s = 0; s < n; ++s) {
        Server server(makePolicy(kind, policy_config), config.server);
        result.servers.push_back(server.run(shares[s]));
    }
    return result;
}

}  // namespace faascache

#endif  // FAASCACHE_TESTS_CLUSTER_SPLIT_ORACLE_H_
