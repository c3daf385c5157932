/**
 * @file
 * Ablation of kswapd-style background reclamation (paper §6 future
 * work): a periodic reclaimer keeps a free-memory reserve so demand
 * evictions move off the invocation critical path entirely.
 *
 * The reclaimer-setting cells run through the parallel SweepRunner
 * (`--jobs N`); output is byte-identical for any worker count.
 * Crash-safety flags: `--deadline-s X`, `--retries N`,
 * `--ckpt PATH [--resume]`; failed cells render as ERR.
 */
#include <iostream>

#include "core/policy_factory.h"
#include "sim/sweep_runner.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

int
main(int argc, char** argv)
{
    const Trace pop = bench::population();
    const Trace rep = bench::representativeTrace(pop);
    const MemMb memory = 15 * 1024.0;

    std::cout << "Background-reclaim ablation — Greedy-Dual on the "
                 "representative trace at "
              << formatDouble(memory / 1024.0, 0) << " GB\n\n";

    struct Setting
    {
        const char* label;
        TimeUs interval;
        MemMb target;
    };
    const Setting settings[] = {
        {"off (demand eviction only)", 0, 0},
        {"every 10 s, 512 MB reserve", 10 * kSecond, 512},
        {"every 10 s, 1024 MB reserve", 10 * kSecond, 1024},
        {"every 60 s, 1024 MB reserve", kMinute, 1024},
    };

    std::vector<SweepCell> cells;
    for (const Setting& setting : settings) {
        SweepCell cell = makeCell(rep, PolicyKind::GreedyDual, memory);
        cell.sim.memory_sample_interval_us = 0;
        cell.sim.background_reclaim_interval_us = setting.interval;
        cell.sim.background_free_target_mb = setting.target;
        cells.push_back(std::move(cell));
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);

    TablePrinter table({"Reclaimer", "cold %", "exec increase %",
                        "critical-path rounds", "background reclaims"});
    for (std::size_t i = 0; i < std::size(settings); ++i) {
        const CellOutcome<SimResult>& cell = report.cells[i];
        table.addRow(
            {settings[i].label,
             bench::cellText(
                 cell,
                 [](const SimResult& r) { return r.coldStartPercent(); },
                 2),
             bench::cellText(
                 cell,
                 [](const SimResult& r) {
                     return r.execTimeIncreasePercent();
                 },
                 2),
             bench::cellCount(
                 cell,
                 [](const SimResult& r) { return r.eviction_rounds; }),
             bench::cellCount(cell, [](const SimResult& r) {
                 return r.background_reclaims;
             })});
    }
    table.print(std::cout);
    std::cout << "\nA modest reserve eliminates most slow-path eviction "
                 "rounds from the invocation\npath at a small hit-ratio "
                 "cost (containers die earlier than strictly needed).\n";
    return report.allOk() ? 0 : 1;
}
