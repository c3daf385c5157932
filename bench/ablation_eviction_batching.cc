/**
 * @file
 * Ablation of eviction batching (paper §6: "we batch eviction
 * operations to optimize the slow-path: we evict multiple containers to
 * reach a certain free resource threshold (1000 MB is the current
 * default)"). Larger batches run the sorting slow path less often at
 * the cost of evicting containers earlier than strictly necessary.
 *
 * The batch-threshold cells run through the parallel SweepRunner
 * (`--jobs N`); output is byte-identical for any worker count.
 * Crash-safety flags: `--deadline-s X`, `--retries N`,
 * `--ckpt PATH [--resume]`; failed cells render as ERR.
 */
#include <iostream>

#include "core/greedy_dual.h"
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

    std::cout << "Eviction-batching ablation — Greedy-Dual on the "
                 "representative trace at "
              << formatDouble(memory / 1024.0, 0) << " GB\n\n";

    const std::vector<double> batches = {0.0, 256.0, 1024.0, 4096.0};
    std::vector<SweepCell> cells;
    for (double batch : batches) {
        GreedyDualConfig gd;
        gd.batch_free_mb = batch;

        SweepCell cell;
        cell.trace = &rep;
        cell.make_policy = [gd]() {
            return std::make_unique<GreedyDualPolicy>(gd);
        };
        cell.sim.memory_mb = memory;
        cell.sim.memory_sample_interval_us = 0;
        cells.push_back(std::move(cell));
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);

    TablePrinter table({"Batch threshold (MB)", "cold %",
                        "exec increase %", "slow-path rounds",
                        "evictions", "evictions/round"});
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const CellOutcome<SimResult>& cell = report.cells[i];
        table.addRow(
            {formatDouble(batches[i], 0),
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
             bench::cellCount(
                 cell, [](const SimResult& r) { return r.evictions; }),
             bench::cellText(
                 cell,
                 [](const SimResult& r) {
                     return r.eviction_rounds > 0
                         ? static_cast<double>(r.evictions) /
                             static_cast<double>(r.eviction_rounds)
                         : 0.0;
                 },
                 1)});
    }
    table.print(std::cout);
    std::cout << "\nBatching trades slightly earlier evictions (a small "
                 "hit-ratio cost) for far\nfewer slow-path sorting "
                 "rounds on the invocation critical path.\n";
    return report.allOk() ? 0 : 1;
}
