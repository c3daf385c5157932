/**
 * @file
 * Fault-tolerance experiment: TTL (vanilla OpenWhisk) versus Greedy-Dual
 * (FaasCache) keep-alive on a 4-server cluster, with and without an
 * injected fault schedule — two mid-trace server crashes with delayed
 * restarts, transient container-spawn failures, and cold-start
 * stragglers — under the health-aware front end (failover, bounded
 * retries with exponential backoff, admission control).
 *
 * The question the table answers: does FaasCache's keep-alive advantage
 * survive a fleet that loses and regains capacity, and what does the
 * outage cost each policy in drops, sheds, and crash-induced cold
 * starts?
 */
#include <iostream>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/azure_model.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

namespace {

/**
 * An Azure-model population large enough that every server's share of
 * functions oversubscribes its pool — the regime where the keep-alive
 * policy decides who stays warm and the two policies diverge.
 */
Trace
workload(TimeUs duration)
{
    AzureModelConfig model;
    model.seed = 7;
    model.num_functions = 96;
    model.duration_us = duration;
    model.iat_median_sec = 30.0;
    model.max_rate_per_sec = 2.0;
    model.warm_median_ms = 300.0;
    model.warm_sigma = 1.0;
    model.mem_median_mb = 160.0;
    model.mem_sigma = 0.7;
    model.mem_min_mb = 64;
    model.mem_max_mb = 512;
    return generateAzureTrace(model);
}

ClusterConfig
baseConfig()
{
    ClusterConfig config;
    config.num_servers = 4;
    config.server.cores = 6;
    config.server.memory_mb = 2000;
    config.server.cold_start_cpu_slots = 2;
    config.balancing = LoadBalancing::FunctionHash;
    return config;
}

FaultPlan
outagePlan()
{
    FaultPlan plan;
    // Server 1 dies 15 min in and is back 5 min later; server 2 dies at
    // 35 min for 10 min. Between crashes the fleet also suffers flaky
    // container spawns and straggling cold starts.
    plan.crashes.push_back({1, 15 * kMinute, 5 * kMinute});
    plan.crashes.push_back({2, 35 * kMinute, 10 * kMinute});
    plan.spawn_failure_prob = 0.02;
    plan.straggler_prob = 0.05;
    plan.straggler_multiplier = 4.0;
    return plan;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(argc, argv);
    const TimeUs duration = kHour;
    const Trace trace = workload(duration);

    std::cout << "Fault tolerance: OpenWhisk (TTL) vs FaasCache "
                 "(Greedy-Dual), 4-server cluster\n(Azure-model "
                 "workload, "
              << trace.functions().size() << " functions, "
              << toSeconds(duration) / 60
              << " min; faulted runs crash server 1 at 15 min for 5 min "
                 "and\nserver 2 at 35 min for 10 min, with 2% spawn "
                 "failures and 5% 4x cold-start stragglers)\n\n";

    std::vector<std::string> labels;
    std::vector<ClusterCell> cells;
    for (PolicyKind kind : {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
        const std::string name =
            kind == PolicyKind::Ttl ? "TTL" : "GreedyDual";
        labels.push_back(name + " healthy");
        cells.push_back(
            {&trace, kind, baseConfig(), {}, name + "/healthy"});
        ClusterConfig faulted = baseConfig();
        faulted.faults = outagePlan();
        faulted.failover.shed_queue_depth = 256;
        labels.push_back(name + " faulted");
        cells.push_back({&trace, kind, faulted, {}, name + "/faulted"});
    }
    const auto report =
        bench::runBenchSweep(cells, options, runClusterSweepReport);

    TablePrinter table({"Run", "Warm%", "Cold", "Dropped", "Shed",
                        "Failed", "Retries", "Failovers", "CrashCold",
                        "Down(s)", "MeanLat(s)"});
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome<ClusterResult>& cell = report.cells[i];
        if (!cell.ok()) {
            table.addRow({labels[i], "ERR", "ERR", "ERR", "ERR", "ERR",
                          "ERR", "ERR", "ERR", "ERR", "ERR"});
            continue;
        }
        const ClusterResult& r = cell.result;
        const RobustnessCounters rc = r.robustness();
        table.addRow({labels[i], formatDouble(r.warmPercent(), 1),
                      std::to_string(r.coldStarts()),
                      std::to_string(r.dropped()),
                      std::to_string(r.shed_requests),
                      std::to_string(r.failed_requests),
                      std::to_string(r.retries),
                      std::to_string(r.failovers),
                      std::to_string(rc.redispatch_cold_starts),
                      formatDouble(toSeconds(rc.downtime_us), 0),
                      formatDouble(r.meanLatencySec(), 2)});
    }
    table.print(std::cout);

    if (!report.cells[1].ok() || !report.cells[3].ok())
        return 1;
    const ClusterResult& ttl = report.cells[1].result;
    const ClusterResult& gd = report.cells[3].result;
    const auto lost = [](const ClusterResult& r) {
        return r.dropped() + r.shed_requests + r.failed_requests;
    };
    std::cout << "\nUnder the outage schedule FaasCache loses "
              << lost(gd) << " requests to TTL's " << lost(ttl)
              << " (drops + sheds + failures) and serves at "
              << formatDouble(gd.meanLatencySec(), 2) << " s mean vs "
              << formatDouble(ttl.meanLatencySec(), 2)
              << " s; warm ratios are " << formatDouble(gd.warmPercent(), 1)
              << "% vs " << formatDouble(ttl.warmPercent(), 1) << "%.\n"
              << "Fleet downtime is identical by construction ("
              << formatDouble(toSeconds(gd.unavailabilityUs()), 0)
              << " s); the policies differ in what the outage costs the "
                 "requests that survive it.\n";
    return report.allOk() ? 0 : 1;
}
