/**
 * @file
 * Reproduces Figure 9: the proportional controller dynamically resizes
 * the keep-alive cache so the cold-start speed tracks a target while a
 * diurnal workload swings, reducing the average provisioned size versus
 * a conservative static 10,000 MB allocation by >= 30%.
 *
 * A single long replay, driven as a one-cell elastic sweep so it shares
 * the crash-safe bench contract: SIGINT/SIGTERM cancel it cooperatively
 * (exit 128+sig), --ckpt/--resume journal and restore the completed
 * run, and --deadline-s/--retries bound it.
 */
#include <iostream>
#include <vector>

#include "core/policy_factory.h"
#include "provisioning/elastic_sweep.h"
#include "trace/azure_model.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

int
main(int argc, char** argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(argc, argv);
    AzureModelConfig workload;
    workload.seed = 17;
    workload.num_functions = 80;
    workload.duration_us = 6 * kHour;
    workload.iat_median_sec = 30.0;
    workload.max_rate_per_sec = 2.0;
    workload.warm_median_ms = 100.0;
    workload.warm_sigma = 0.8;
    workload.mem_median_mb = 128.0;
    workload.mem_sigma = 0.6;
    workload.mem_min_mb = 64;
    workload.mem_max_mb = 512;
    workload.diurnal = true;
    workload.diurnal_peak_to_mean = 2.0;
    workload.diurnal_period_us = 6 * kHour;
    workload.name = "diurnal";
    const Trace trace = generateAzureTrace(workload);

    ControllerConfig controller;
    controller.target_miss_speed = 1.0;  // cold starts per second
    controller.arrival_smoothing_alpha = 0.5;
    controller.min_size_mb = 1024;
    controller.max_size_mb = 32 * 1024;

    ElasticConfig elastic;
    elastic.initial_size_mb = 10'000;

    std::cout << "Figure 9: dynamic vertical scaling under a diurnal "
                 "workload\n(target miss speed "
              << controller.target_miss_speed
              << " cold starts/s, 10-minute control period, 30% error "
                 "deadband)\n\n";

    std::vector<ElasticCell> cells;
    cells.push_back({&trace, PolicyKind::GreedyDual, {}, controller,
                     elastic, "diurnal/GreedyDual/fig9"});
    const auto report =
        bench::runBenchSweep(cells, options, runElasticSweepReport);
    if (!report.cells[0].ok())
        return 1;
    const ElasticResult& r = report.cells[0].result;

    TablePrinter table({"t (min)", "arrivals/s", "smoothed/s",
                        "cold starts/s", "cache size (MB)", ""});
    for (const auto& s : r.timeline) {
        const auto bar = static_cast<std::size_t>(s.cache_size_mb / 400.0);
        table.addRow({formatDouble(toSeconds(s.time_us) / 60.0, 0),
                      formatDouble(s.arrival_rate, 1),
                      formatDouble(s.smoothed_arrival, 1),
                      formatDouble(s.miss_speed, 2),
                      formatDouble(s.cache_size_mb, 0),
                      std::string(bar, '#')});
    }
    table.print(std::cout);

    const double cold_speed = static_cast<double>(r.sim.cold_starts) /
        toSeconds(workload.duration_us);
    std::cout << "\nStatic conservative provisioning: "
              << formatDouble(elastic.initial_size_mb, 0)
              << " MB\nDynamic average size:            "
              << formatDouble(r.averageSizeMb(), 0) << " MB ("
              << formatDouble(100.0 * r.averageSizeMb() /
                                  elastic.initial_size_mb,
                              0)
              << "% of static, peak "
              << formatDouble(r.peakSizeMb(), 0)
              << " MB)\nOverall cold-start speed:        "
              << formatDouble(cold_speed, 3) << " /s vs target "
              << formatDouble(controller.target_miss_speed, 3)
              << " /s\nDropped requests:                " << r.sim.dropped
              << " of " << r.sim.total() << "\n";
    return 0;
}
