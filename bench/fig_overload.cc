/**
 * @file
 * Overload-control experiment: a flash crowd (burst intensity sweep)
 * plus a mid-burst server crash, replayed against a 4-server cluster
 * with TTL (vanilla OpenWhisk) and Greedy-Dual (FaasCache) keep-alive,
 * each undefended and defended by the overload subsystem — CoDel-style
 * adaptive admission, cold-start brownout, cluster retry budgets, and
 * per-server circuit breakers (DESIGN.md §4e).
 *
 * The question the table answers: when the §7.2 feedback loop (cold
 * starts hold cores and memory longer, the queue grows, requests time
 * out) is provoked on purpose, does shedding early and denying only the
 * cold path buy back goodput and time-to-recovery — and does the
 * Greedy-Dual cache value the brownout protects show up as warm hits?
 *
 * Flags: the shared bench sweep flags (--jobs/--deadline-s/--retries/
 * --ckpt/--resume, see bench/workloads.h) plus --smoke, which shrinks
 * the grid to one burst intensity for CI, and --shards N (default 1,
 * must be >= 1), the worker threads each cell's cluster runs on.
 * Results are shard-count invariant, so the table never depends on N.
 */
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/azure_model.h"
#include "util/stats.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

namespace {

constexpr TimeUs kBurstStart = 20 * kMinute;
constexpr TimeUs kBurstLen = 5 * kMinute;

/** Burst invocations injected per unit of intensity. */
constexpr std::int64_t kBurstPerIntensity = 1'200;

/**
 * Steady Azure-model background plus a flash crowd: `intensity` x 1200
 * invocations of previously-unseen functions — one invocation per
 * function, so there is no warm reuse to hide behind — evenly spaced
 * across the burst window. Every crowd request is an expensive
 * multi-second cold init at cold_start_cpu_slots, so the burst provokes
 * exactly the §7.2 feedback loop: cold starts eat cores and evict the
 * warm background working set, which then re-cold-starts.
 */
Trace
workload(TimeUs duration, int intensity)
{
    AzureModelConfig model;
    model.seed = 11;
    model.num_functions = 96;
    model.duration_us = duration;
    model.iat_median_sec = 60.0;
    model.max_rate_per_sec = 0.5;
    // Bounded warm times keep the steady background comfortably inside
    // the fleet's capacity: congestion in this experiment comes from the
    // crowd, not from a heavy hitter saturating its hash-home server.
    model.warm_median_ms = 300.0;
    model.warm_sigma = 0.8;
    model.warm_max_ms = 4'000.0;
    // Background cold starts stay cheap; the expensive inits belong to
    // the flash crowd below.
    model.init_ratio_max = 2.0;
    model.mem_median_mb = 160.0;
    model.mem_sigma = 0.7;
    model.mem_min_mb = 64;
    model.mem_max_mb = 512;
    Trace trace = generateAzureTrace(model);

    const std::size_t catalog = trace.functions().size();
    const std::int64_t extra = intensity * kBurstPerIntensity;
    trace.reserveInvocations(trace.invocations().size() +
                             static_cast<std::size_t>(extra));
    for (std::int64_t i = 0; i < extra; ++i) {
        const FunctionId id =
            static_cast<FunctionId>(catalog + static_cast<std::size_t>(i));
        // The web-serving end of the paper's Table 1: a quick warm run
        // behind a multi-second, CPU-heavy initialization.
        trace.addFunction(makeFunction(id, "crowd-" + std::to_string(i),
                                       /*mem_mb=*/256, fromMillis(400),
                                       fromMillis(2'500)));
        trace.addInvocation(id, kBurstStart + (i * kBurstLen) / extra);
    }
    trace.sortInvocations();
    trace.setName("overload-x" + std::to_string(intensity));
    return trace;
}

/**
 * Mid-burst fault schedule: server 1 dies one minute into the crowd and
 * is back two minutes later, spilling its queue into the retry path
 * while the fleet is already saturated; flaky spawns ride along.
 */
FaultPlan
burstOutage()
{
    FaultPlan plan;
    plan.crashes.push_back({1, kBurstStart + kMinute, 2 * kMinute});
    plan.spawn_failure_prob = 0.02;
    return plan;
}

ClusterConfig
baseConfig()
{
    ClusterConfig config;
    config.num_servers = 4;
    config.server.cores = 6;
    // Roomy pools: the crowd's cold starts are core-bound, not
    // memory-bound, so the §7.2 collapse the defense fights is queue
    // growth behind busy cores rather than eviction churn. Cold inits
    // occupy one ordinary core slot, which makes the collapse a pure
    // head-of-line-blocking story: once every core is grinding through
    // a crowd init, the warm background hits queued behind the crowd
    // cannot start at all.
    config.server.memory_mb = 8000;
    config.balancing = LoadBalancing::FunctionHash;
    config.faults = burstOutage();
    return config;
}

/** The defended variant: every overload mechanism armed. */
ClusterConfig
defendedConfig()
{
    ClusterConfig config = baseConfig();
    config.server.overload.admission.enabled = true;
    config.server.overload.admission.target_delay_us = 2 * kSecond;
    config.server.overload.admission.interval_us = 5 * kSecond;
    config.server.overload.brownout.enabled = true;
    config.server.overload.brownout.min_duration_us = 10 * kSecond;
    config.failover.retry_budget.ratio = 0.1;
    config.failover.retry_budget.burst = 8;
    config.failover.breaker.failure_threshold = 16;
    config.failover.breaker.open_duration_us = 10 * kSecond;
    return config;
}

std::int64_t
totalServed(const ClusterResult& r)
{
    return r.warmStarts() + r.coldStarts();
}

/**
 * Goodput SLO: a request only counts as good if it completes within
 * this latency bound — over 10x the calm cluster's p50, so it only
 * excludes requests the overload actually damaged.
 */
constexpr double kSloSec = 5.0;

/** Served invocations that met the SLO. */
std::int64_t
sloServed(const ClusterResult& r)
{
    std::int64_t good = 0;
    for (const PlatformResult& s : r.servers)
        for (double latency : s.latencies_sec)
            good += latency <= kSloSec ? 1 : 0;
    return good;
}

/** Last instant any server still had a core's worth of backlog. */
TimeUs
lastCongestedUs(const ClusterResult& r)
{
    TimeUs last = 0;
    for (const PlatformResult& s : r.servers)
        last = std::max(last, s.last_congested_us);
    return last;
}

/** Time from burst onset until the fleet's queues last backed up. */
double
recoverySec(const ClusterResult& r)
{
    const TimeUs last = lastCongestedUs(r);
    return last > kBurstStart ? toSeconds(last - kBurstStart) : 0.0;
}

Summary
latencySummary(const ClusterResult& r)
{
    std::vector<double> all;
    for (const PlatformResult& s : r.servers)
        all.insert(all.end(), s.latencies_sec.begin(),
                   s.latencies_sec.end());
    return summarize(std::move(all));
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(argc, argv);
    bool smoke = false;
    std::size_t shards = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc)
            shards = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
    }

    const TimeUs duration = smoke ? 40 * kMinute : kHour;
    const std::vector<int> intensities =
        smoke ? std::vector<int>{4} : std::vector<int>{2, 4, 8};

    std::cout << "Overload control: flash crowd + mid-burst crash, "
                 "4-server cluster, TTL vs GreedyDual,\nundefended vs "
                 "defended (CoDel admission + cold-start brownout + "
                 "retry budget + breaker)\n(burst of intensity x "
              << kBurstPerIntensity << " extra invocations over "
              << toSeconds(kBurstLen) / 60 << " min starting at "
              << toSeconds(kBurstStart) / 60
              << " min; server 1 crashes 1 min in for 2 min)\n\n";

    std::deque<Trace> traces;
    std::vector<std::string> labels;
    std::vector<ClusterCell> cells;
    std::vector<std::size_t> totals;
    for (int intensity : intensities) {
        traces.push_back(workload(duration, intensity));
        const Trace& trace = traces.back();
        for (PolicyKind kind :
             {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
            const std::string policy =
                kind == PolicyKind::Ttl ? "TTL" : "GreedyDual";
            for (bool defended : {false, true}) {
                const std::string mode =
                    defended ? "defended" : "undefended";
                labels.push_back("x" + std::to_string(intensity) + " " +
                                 policy + " " + mode);
                ClusterConfig config =
                    defended ? defendedConfig() : baseConfig();
                config.shards = shards;
                cells.push_back({&trace, kind, config, {},
                                 trace.name() + "/" + policy + "/" + mode});
                totals.push_back(trace.invocations().size());
            }
        }
    }

    const auto report =
        bench::runBenchSweep(cells, options, runClusterSweepReport);

    TablePrinter table({"Run", "Goodput%", "Served%", "Warm%", "Cold",
                        "Drop", "Shed", "Denied", "Fail", "p50(s)",
                        "p99(s)", "Recov(s)"});
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome<ClusterResult>& cell = report.cells[i];
        if (!cell.ok()) {
            table.addRow({labels[i], "ERR", "ERR", "ERR", "ERR", "ERR",
                          "ERR", "ERR", "ERR", "ERR", "ERR", "ERR"});
            continue;
        }
        const ClusterResult& r = cell.result;
        const OverloadCounters oc = r.overload();
        const Summary lat = latencySummary(r);
        const double goodput =
            100.0 * static_cast<double>(sloServed(r)) /
            static_cast<double>(totals[i]);
        const double served =
            100.0 * static_cast<double>(totalServed(r)) /
            static_cast<double>(totals[i]);
        // Drop = queue-full + queue-timeout losses only; arrivals the
        // defense turned away on purpose report as Shed (admission +
        // cluster high-water) and Denied (brownout cold path).
        const std::int64_t queue_drops = r.dropped() - oc.admission_shed -
                                         oc.brownout_denied_cold;
        table.addRow({labels[i], formatDouble(goodput, 1),
                      formatDouble(served, 1),
                      formatDouble(r.warmPercent(), 1),
                      std::to_string(r.coldStarts()),
                      std::to_string(queue_drops),
                      std::to_string(r.shed_requests + oc.admission_shed),
                      std::to_string(oc.brownout_denied_cold),
                      std::to_string(r.failed_requests),
                      formatDouble(lat.p50, 2), formatDouble(lat.p99, 2),
                      formatDouble(recoverySec(r), 0)});
    }
    table.print(std::cout);

    // Headline comparison: Greedy-Dual defended vs undefended at the
    // middle burst intensity (the sweet spot the defense is tuned for;
    // the heaviest row shows the trade-off's boundary instead).
    const std::size_t mid =
        intensities.size() > 1 ? 1 : 0;  // x4 in both full and smoke grids
    const std::size_t gd_undef = mid * 4 + 2;
    const std::size_t gd_def = mid * 4 + 3;
    if (report.cells[gd_undef].ok() && report.cells[gd_def].ok()) {
        const ClusterResult& undef = report.cells[gd_undef].result;
        const ClusterResult& def = report.cells[gd_def].result;
        const double total = static_cast<double>(totals[gd_def]);
        std::cout << "\nAt the x" << intensities[mid]
                  << " burst the defended Greedy-Dual cluster delivers "
                  << formatDouble(100.0 * sloServed(def) / total, 1)
                  << "% goodput (served within " << formatDouble(kSloSec, 0)
                  << " s) vs "
                  << formatDouble(100.0 * sloServed(undef) / total, 1)
                  << "% undefended, clears its backlog "
                  << formatDouble(
                         recoverySec(undef) - recoverySec(def), 0)
                  << " s sooner ("
                  << formatDouble(recoverySec(def), 0) << " s vs "
                  << formatDouble(recoverySec(undef), 0)
                  << " s after burst onset), and keeps p99 latency at "
                  << formatDouble(latencySummary(def).p99, 2) << " s vs "
                  << formatDouble(latencySummary(undef).p99, 2)
                  << " s.\nThe brownout denied "
                  << def.overload().brownout_denied_cold
                  << " cold-path requests across "
                  << def.overload().brownout_windows
                  << " windows; admission shed "
                  << def.overload().admission_shed
                  << "; the retry budget refused "
                  << def.retry_budget_exhausted << " retries.\n";
    }
    return report.allOk() ? 0 : 1;
}
