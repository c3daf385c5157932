/**
 * @file
 * Chaos soak (ISSUE 8): a seeded battery of correlated crash bursts,
 * network-partition windows, and memory-pressure OOM kills against a
 * 4-server cluster with every defense engaged — health-aware failover,
 * bounded retries under per-server token budgets, circuit breakers,
 * admission control, and cold-start brownout — while the runtime
 * invariant auditor (util/audit.h) watches every layer.
 *
 * The question the table answers: does the platform conserve every
 * request and keep its internal invariants (request ledger, pool
 * accounting, event order, breaker legality) under randomized
 * compound chaos, and how fast does the fleet recover?
 *
 * Pass criteria (exit status): every cell completes and the auditor
 * records zero violations across the whole battery.
 *
 * Shared sweep flags (--jobs/--deadline-s/--retries/--ckpt/--resume,
 * see bench/workloads.h) plus --smoke, which shrinks the battery for
 * sanitizer CI runs.
 */
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/azure_model.h"
#include "util/audit.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

namespace {

constexpr std::size_t kServers = 4;

/** Azure-model workload; each battery seed gets its own stream. */
Trace
workload(std::uint64_t seed, TimeUs duration)
{
    AzureModelConfig model;
    model.seed = 100 + seed;
    model.num_functions = 48;
    model.duration_us = duration;
    model.iat_median_sec = 20.0;
    model.max_rate_per_sec = 2.0;
    model.warm_median_ms = 250.0;
    model.mem_median_mb = 160.0;
    model.mem_sigma = 0.7;
    model.mem_min_mb = 64;
    model.mem_max_mb = 512;
    model.name = "chaos-" + std::to_string(seed);
    return generateAzureTrace(model);
}

/** Every defense on: the configuration the chaos battery certifies. */
ClusterConfig
defendedConfig(Auditor* audit)
{
    ClusterConfig config;
    config.num_servers = kServers;
    config.server.cores = 4;
    config.server.memory_mb = 1500;
    config.server.cold_start_cpu_slots = 2;
    config.server.audit = audit;
    config.balancing = LoadBalancing::FunctionHash;
    config.failover.shed_queue_depth = 64;
    config.failover.retry_budget.ratio = 0.5;
    config.failover.retry_budget.burst = 16.0;
    config.failover.breaker.failure_threshold = 5;
    config.failover.breaker.open_duration_us = 5 * kSecond;
    config.server.overload.admission.enabled = true;
    config.server.overload.brownout.enabled = true;
    return config;
}

/** One correlated burst takes down half the fleet inside a window. */
FaultPlan
burstPlan(std::uint64_t seed, TimeUs duration)
{
    FaultPlan plan;
    CrashBurst burst;
    burst.at_us = duration / 3;
    burst.window_us = 2 * kMinute;
    burst.servers = kServers / 2;
    burst.restart_after_us = 2 * kMinute;
    burst.seed = seed;
    plan.crash_bursts.push_back(burst);
    return plan;
}

/** Front-end partitions: two servers unreachable in rolling windows. */
FaultPlan
partitionPlan(std::uint64_t seed, TimeUs duration)
{
    FaultPlan plan;
    const TimeUs t0 = duration / 4;
    plan.partitions.push_back(
        {static_cast<std::size_t>(seed % kServers), t0,
         t0 + 2 * kMinute});
    plan.partitions.push_back(
        {static_cast<std::size_t>((seed + 1) % kServers),
         t0 + 3 * kMinute, t0 + 4 * kMinute});
    return plan;
}

/** Memory-pressure kills of the fattest busy container. */
FaultPlan
oomPlan(std::uint64_t seed, TimeUs duration)
{
    FaultPlan plan;
    plan.oom_kills.push_back(
        {static_cast<std::size_t>(seed % kServers), duration / 4});
    plan.oom_kills.push_back(
        {static_cast<std::size_t>((seed * 7 + 1) % kServers),
         duration / 2});
    plan.oom_kills.push_back(
        {static_cast<std::size_t>((seed * 13 + 2) % kServers),
         (3 * duration) / 4});
    return plan;
}

/** All of the above at once, plus flaky spawns and stragglers. */
FaultPlan
combinedPlan(std::uint64_t seed, TimeUs duration)
{
    FaultPlan plan = burstPlan(seed, duration);
    const FaultPlan partitions = partitionPlan(seed, duration);
    const FaultPlan ooms = oomPlan(seed + 5, duration);
    plan.partitions = partitions.partitions;
    plan.oom_kills = ooms.oom_kills;
    plan.spawn_failure_prob = 0.02;
    plan.straggler_prob = 0.05;
    plan.straggler_multiplier = 4.0;
    plan.seed = seed;
    return plan;
}

struct Scenario
{
    const char* label;
    FaultPlan (*plan)(std::uint64_t, TimeUs);
};

}  // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const std::size_t seeds = smoke ? 6 : 32;
    const TimeUs duration = smoke ? 20 * kMinute : 40 * kMinute;

    const Scenario scenarios[] = {
        {"crash-burst", burstPlan},
        {"partition", partitionPlan},
        {"oom-kill", oomPlan},
        {"combined", combinedPlan},
    };

    std::cout << "Chaos soak: " << seeds << " seeds x "
              << std::size(scenarios)
              << " fault scenarios on a 4-server cluster, every defense "
                 "on,\nruntime invariant auditor enabled ("
              << toSeconds(duration) / 60 << " min Azure-model "
              << "workload per seed)\n\n";

    // Traces must outlive the sweep (cells hold pointers).
    std::vector<Trace> traces;
    traces.reserve(seeds);
    for (std::uint64_t seed = 0; seed < seeds; ++seed)
        traces.push_back(workload(seed, duration));

    // One auditor per scenario, shared by all its seeds (thread-safe),
    // so a violation is attributed to the fault class that caused it.
    std::vector<std::unique_ptr<Auditor>> audits;
    std::vector<ClusterCell> cells;
    std::vector<std::string> labels;
    for (const Scenario& scenario : scenarios) {
        audits.push_back(std::make_unique<Auditor>());
        for (std::uint64_t seed = 0; seed < seeds; ++seed) {
            ClusterConfig config = defendedConfig(audits.back().get());
            config.faults = scenario.plan(seed, duration);
            config.seed = seed + 1;
            cells.push_back({&traces[seed], PolicyKind::GreedyDual,
                             config, {},
                             std::string(scenario.label) + "/seed" +
                                 std::to_string(seed)});
        }
        labels.push_back(scenario.label);
    }

    const auto report =
        bench::runBenchSweep(cells, options, runClusterSweepReport);

    TablePrinter table({"Scenario", "Seeds", "Crashes", "OOMKills",
                        "PartSkips", "Shed", "Failed", "Recov(s)",
                        "Viol"});
    bool all_ok = report.allOk();
    std::int64_t total_violations = 0;
    for (std::size_t g = 0; g < std::size(scenarios); ++g) {
        std::int64_t crashes = 0, restarts = 0, oom = 0, part = 0;
        std::int64_t shed = 0, failed = 0;
        TimeUs downtime = 0;
        bool group_ok = true;
        for (std::size_t i = 0; i < seeds; ++i) {
            const CellOutcome<ClusterResult>& cell =
                report.cells[g * seeds + i];
            if (!cell.ok()) {
                group_ok = false;
                continue;
            }
            const ClusterResult& r = cell.result;
            const RobustnessCounters rc = r.robustness();
            crashes += rc.crashes;
            restarts += rc.restarts;
            oom += rc.oom_kills;
            part += r.partition_unreachable;
            shed += r.shed_requests;
            failed += r.failed_requests;
            downtime += rc.downtime_us;
        }
        const std::int64_t violations = audits[g]->violationCount();
        total_violations += violations;
        // Mean outage-to-restart time across the scenario's crash
        // windows: how long the fleet ran degraded per incident.
        const double recovery = crashes > 0
            ? toSeconds(downtime) / static_cast<double>(crashes)
            : 0.0;
        table.addRow({labels[g],
                      group_ok ? std::to_string(seeds) : "ERR",
                      std::to_string(crashes), std::to_string(oom),
                      std::to_string(part), std::to_string(shed),
                      std::to_string(failed),
                      formatDouble(recovery, 0),
                      std::to_string(violations)});
        if (violations > 0) {
            std::cerr << "\n" << labels[g]
                      << " violated invariants:\n"
                      << audits[g]->report();
        }
    }
    table.print(std::cout);

    if (total_violations == 0 && all_ok) {
        std::cout << "\nZero invariant violations across "
                  << cells.size()
                  << " chaos runs: every request conserved, every "
                     "ledger balanced, every state machine legal.\n";
        return 0;
    }
    std::cerr << "\nCHAOS SOAK FAILED: " << total_violations
              << " invariant violation(s)"
              << (all_ok ? "" : " and at least one cell error") << "\n";
    return 1;
}
