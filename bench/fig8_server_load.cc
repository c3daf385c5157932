/**
 * @file
 * Reproduces Figure 8: the per-application breakdown of warm, cold, and
 * dropped invocations for vanilla OpenWhisk versus FaasCache under the
 * skewed-frequency FunctionBench workload (CNN/disk-bench/web-serving
 * at 1500 ms mean IAT, floating-point at 400 ms), plus the resulting
 * application-latency improvement. Cold starts burn extra platform CPU
 * during initialization (cold_start_cpu_slots = 2), the load feedback
 * the paper attributes OpenWhisk's drops to.
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
    const Trace trace = skewedFrequencyWorkload(duration);

    ServerConfig server;
    server.cores = 8;
    server.memory_mb = 1000;
    server.cold_start_cpu_slots = 2;

    std::cout << "Figure 8: warm/cold/dropped breakdown, OpenWhisk vs "
                 "FaasCache\n(skewed-frequency FunctionBench workload, "
              << server.cores << " cores, " << server.memory_mb
              << " MB pool, " << toSeconds(duration) / 60 << " min)\n\n";

    // The OW and FC runs execute concurrently under the crash-safety
    // harness (--jobs N, --deadline-s X, --retries N; the output is
    // byte-identical for any worker count). The whole table compares
    // the two runs, so either failing is fatal here.
    PolicyConfig openwhisk_config;
    openwhisk_config.ttl_victim_order = TtlVictimOrder::OldestCreated;
    const std::vector<PlatformCell> cells = {
        {&trace, PolicyKind::Ttl, server, openwhisk_config, {}},
        {&trace, PolicyKind::GreedyDual, server, PolicyConfig{}, {}},
    };
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runPlatformSweepReport);
    if (!report.allOk())
        return 1;
    PlatformComparison cmp;
    cmp.openwhisk = report.cells[0].result;
    cmp.faascache = report.cells[1].result;

    TablePrinter table({"Function", "OW warm", "OW cold", "OW drop",
                        "OW hit%", "FC warm", "FC cold", "FC drop",
                        "FC hit%", "OW lat (s)", "FC lat (s)"});
    for (const auto& fn : trace.functions()) {
        const FunctionOutcome ow = cmp.openwhisk.outcomeOf(fn.id);
        const FunctionOutcome fc = cmp.faascache.outcomeOf(fn.id);
        auto hit = [](const FunctionOutcome& o) {
            return o.served() > 0
                ? 100.0 * static_cast<double>(o.warm) /
                    static_cast<double>(o.served())
                : 0.0;
        };
        table.addRow({fn.name, std::to_string(ow.warm),
                      std::to_string(ow.cold), std::to_string(ow.dropped),
                      formatDouble(hit(ow), 1), std::to_string(fc.warm),
                      std::to_string(fc.cold), std::to_string(fc.dropped),
                      formatDouble(hit(fc), 1),
                      formatDouble(cmp.openwhisk.meanLatencySecOf(fn.id), 2),
                      formatDouble(cmp.faascache.meanLatencySecOf(fn.id),
                                   2)});
    }
    table.print(std::cout);

    std::cout << "\nTotals: OW warm=" << cmp.openwhisk.warm_starts
              << " cold=" << cmp.openwhisk.cold_starts
              << " dropped=" << cmp.openwhisk.dropped() << " ("
              << formatDouble(cmp.openwhisk.dropPercent(), 1)
              << "%), mean latency "
              << formatDouble(cmp.openwhisk.meanLatencySec(), 2) << " s\n"
              << "        FC warm=" << cmp.faascache.warm_starts
              << " cold=" << cmp.faascache.cold_starts
              << " dropped=" << cmp.faascache.dropped() << " ("
              << formatDouble(cmp.faascache.dropPercent(), 1)
              << "%), mean latency "
              << formatDouble(cmp.faascache.meanLatencySec(), 2) << " s\n"
              << "Warm-start ratio FC/OW: "
              << formatDouble(cmp.warmStartRatio(), 2)
              << ", served ratio: " << formatDouble(cmp.servedRatio(), 2)
              << ", latency improvement: "
              << formatDouble(cmp.latencyImprovement(), 2) << "x\n";
    return 0;
}
