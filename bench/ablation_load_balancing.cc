/**
 * @file
 * Cluster-level ablation (paper §9 discussion): how the front-end
 * load-balancing policy affects keep-alive effectiveness. A
 * function-affine ("stateful") balancer concentrates each function's
 * temporal locality on one invoker; randomized balancing spreads it
 * thin and hurts every keep-alive policy.
 */
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "platform/cluster.h"
#include "platform/load_generator.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

namespace {

const char*
balancingName(LoadBalancing lb)
{
    switch (lb) {
      case LoadBalancing::Random:
        return "random";
      case LoadBalancing::RoundRobin:
        return "round-robin";
      case LoadBalancing::FunctionHash:
        return "function-hash (affine)";
    }
    return "?";
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(argc, argv);
    const Trace trace = skewedFrequencyWorkload(30 * kMinute);

    ClusterConfig config;
    config.num_servers = 4;
    config.server.cores = 4;
    config.server.memory_mb = 512;

    std::cout << "Load-balancing ablation — " << config.num_servers
              << " invokers x (" << config.server.cores << " cores, "
              << config.server.memory_mb
              << " MB pool), skewed-frequency workload\n\n";

    // The grid varies the balancer, which the derived cell key cannot
    // see — name each cell explicitly.
    std::vector<ClusterCell> cells;
    std::vector<std::pair<LoadBalancing, PolicyKind>> axes;
    for (LoadBalancing lb : {LoadBalancing::Random,
                             LoadBalancing::RoundRobin,
                             LoadBalancing::FunctionHash}) {
        for (PolicyKind kind : {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
            config.balancing = lb;
            cells.push_back({&trace, kind, config, {},
                             std::string(balancingName(lb)) + "/" +
                                 policyKindName(kind)});
            axes.emplace_back(lb, kind);
        }
    }
    const auto report =
        bench::runBenchSweep(cells, options, runClusterSweepReport);

    TablePrinter table({"Balancer", "Policy", "warm %", "cold", "dropped",
                        "mean latency (s)"});
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome<ClusterResult>& cell = report.cells[i];
        const std::string balancer = balancingName(axes[i].first);
        const std::string policy = policyKindName(axes[i].second);
        if (!cell.ok()) {
            table.addRow({balancer, policy, "ERR", "ERR", "ERR", "ERR"});
            continue;
        }
        const ClusterResult& r = cell.result;
        table.addRow({balancer, policy,
                      formatDouble(r.warmPercent(), 1),
                      std::to_string(r.coldStarts()),
                      std::to_string(r.dropped()),
                      formatDouble(r.meanLatencySec(), 2)});
    }
    table.print(std::cout);
    std::cout << "\nStateful (function-affine) balancing improves "
                 "temporal locality per invoker and\nlifts the warm "
                 "ratio for every keep-alive policy — the paper's §9 "
                 "observation.\n";
    return report.allOk() ? 0 : 1;
}
