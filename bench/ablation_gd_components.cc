/**
 * @file
 * Ablation of the Greedy-Dual priority terms (paper §4.1/§4.2): the
 * full Priority = Clock + Freq x Cost / Size formula versus variants
 * with individual terms removed, on the representative trace. Shows
 * what each characteristic contributes — dropping everything leaves
 * pure recency (LRU-like aging).
 *
 * The (variant x memory) grid runs through the parallel SweepRunner
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

namespace {

struct Variant
{
    const char* label;
    bool use_frequency;
    bool use_cost;
    bool use_size;
};

}  // namespace

int
main(int argc, char** argv)
{
    const Trace pop = bench::population();
    const Trace rep = bench::representativeTrace(pop);

    const Variant variants[] = {
        {"full GDSF", true, true, true},
        {"no frequency (GD-Size)", false, true, true},
        {"no cost", true, false, true},
        {"no size", true, true, false},
        {"clock only (LRU-like)", false, false, false},
    };

    std::cout << "Greedy-Dual priority-term ablation — % increase in "
                 "execution time on the\nrepresentative trace (lower is "
                 "better)\n\n";

    std::vector<std::string> headers = {"Variant"};
    const std::vector<double> sizes_gb = {10.0, 15.0, 20.0, 30.0};
    for (double gb : sizes_gb)
        headers.push_back(formatDouble(gb, 0) + " GB");
    TablePrinter table(std::move(headers));

    std::vector<SweepCell> cells;
    for (const Variant& variant : variants) {
        for (double gb : sizes_gb) {
            GreedyDualConfig gd;
            gd.use_frequency = variant.use_frequency;
            gd.use_cost = variant.use_cost;
            gd.use_size = variant.use_size;

            SweepCell cell;
            cell.trace = &rep;
            cell.make_policy = [gd]() {
                return std::make_unique<GreedyDualPolicy>(gd);
            };
            cell.sim.memory_mb = gb * 1024.0;
            cell.sim.memory_sample_interval_us = 0;
            cells.push_back(std::move(cell));
        }
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);

    std::size_t next = 0;
    for (const Variant& variant : variants) {
        std::vector<std::string> row = {variant.label};
        for (double gb : sizes_gb) {
            (void)gb;
            row.push_back(bench::cellText(
                report.cells[next++],
                [](const SimResult& r) {
                    return r.execTimeIncreasePercent();
                },
                2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nThe full formula needs all three characteristics: "
                 "cost protects expensive\ninitializations, size stops "
                 "big containers from squatting, frequency keeps\nheavy "
                 "hitters resident.\n";
    return report.allOk() ? 0 : 1;
}
