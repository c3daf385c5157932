/**
 * @file
 * Reproduces Figure 7: cold and warm invocation counts for vanilla
 * OpenWhisk (10-minute TTL, oldest-created pressure eviction) versus
 * FaasCache (Greedy-Dual) on three skewed workload types — skewed
 * frequency, cyclic, and skewed size — on a memory-constrained invoker.
 *
 * All six platform runs (3 workloads x {OW, FC}) execute concurrently
 * through the harnessed platform sweep (`--jobs N`); output is
 * byte-identical for any worker count. Crash-safety flags:
 * `--deadline-s X`, `--retries N`; failed runs render as ERR.
 */
#include <iostream>

#include "platform/experiment.h"
#include "platform/load_generator.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

int
main(int argc, char** argv)
{
    const TimeUs duration = kHour;
    ServerConfig server;
    server.cores = 8;
    server.memory_mb = 1000;

    std::cout << "Figure 7: OpenWhisk (OW) vs FaasCache (FC) on skewed "
                 "workloads\n(server: "
              << server.cores << " cores, " << server.memory_mb
              << " MB container pool, " << toSeconds(duration) / 60
              << " min runs)\n\n";

    struct Workload
    {
        const char* label;
        Trace trace;
    };
    Workload workloads[] = {
        {"Skewed Freq", skewedFrequencyWorkload(duration)},
        {"Cyclic", cyclicWorkload(duration)},
        {"Skewed Size", skewedSizeWorkload(duration)},
    };

    // Vanilla OpenWhisk: 10-minute TTL, oldest-created pressure
    // eviction (matches compareOpenWhiskVsFaasCache).
    PolicyConfig openwhisk_config;
    openwhisk_config.ttl_victim_order = TtlVictimOrder::OldestCreated;

    std::vector<PlatformCell> cells;
    for (const Workload& workload : workloads) {
        cells.push_back({&workload.trace, PolicyKind::Ttl, server,
                         openwhisk_config, {}});
        cells.push_back({&workload.trace, PolicyKind::GreedyDual, server,
                         PolicyConfig{}, {}});
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runPlatformSweepReport);

    TablePrinter table({"Workload Type", "OW Cold", "OW Warm", "OW Drop",
                        "FC Cold", "FC Warm", "FC Drop", "FC/OW warm",
                        "FC/OW served"});
    for (std::size_t i = 0; i < std::size(workloads); ++i) {
        const CellOutcome<PlatformResult>& ow = report.cells[2 * i];
        const CellOutcome<PlatformResult>& fc = report.cells[2 * i + 1];
        // The ratio columns need both head-to-head runs.
        std::string warm_ratio = "ERR";
        std::string served_ratio = "ERR";
        if (ow.ok() && fc.ok()) {
            PlatformComparison cmp;
            cmp.openwhisk = ow.result;
            cmp.faascache = fc.result;
            warm_ratio = formatDouble(cmp.warmStartRatio(), 2);
            served_ratio = formatDouble(cmp.servedRatio(), 2);
        }
        const auto cold = [](const PlatformResult& r) {
            return r.cold_starts;
        };
        const auto warm = [](const PlatformResult& r) {
            return r.warm_starts;
        };
        const auto drop = [](const PlatformResult& r) {
            return r.dropped();
        };
        table.addRow({workloads[i].label, bench::cellCount(ow, cold),
                      bench::cellCount(ow, warm),
                      bench::cellCount(ow, drop),
                      bench::cellCount(fc, cold),
                      bench::cellCount(fc, warm),
                      bench::cellCount(fc, drop), warm_ratio,
                      served_ratio});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper §7.2): FaasCache serves more "
                 "invocations warm on every\nskewed workload; the cyclic "
                 "(recency-adversarial) pattern shows the largest gap\n"
                 "(paper: 50-100% more warm invocations).\n";
    return report.allOk() ? 0 : 1;
}
