/**
 * @file
 * Reproduces Figure 3: the hit-ratio curve of the representative trace
 * constructed from reuse distances (Equation 2), compared against the
 * hit ratio actually observed when the Greedy-Dual simulator runs at
 * each cache size. The reuse-distance curve over-predicts at small
 * sizes (dropped requests and busy containers) and under-predicts at
 * large sizes (concurrent executions create duplicate containers) —
 * the "limitations of the caching analogy" the paper discusses.
 * A SHARDS-sampled approximation of the curve is printed alongside.
 *
 * The per-size Greedy-Dual simulations run through the parallel
 * SweepRunner (`--jobs N`); output is byte-identical for any worker
 * count. Crash-safety flags: `--deadline-s X`, `--retries N`,
 * `--ckpt PATH [--resume]`; failed cells render as ERR.
 */
#include <iostream>

#include "analysis/che_approximation.h"
#include "analysis/reuse_distance.h"
#include "analysis/shards.h"
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

    const HitRatioCurve exact =
        HitRatioCurve::fromReuseDistances(computeReuseDistances(rep));
    const HitRatioCurve sampled =
        curveFromShards(shardsSample(rep, 0.1, 42));
    const CheApproximation che = CheApproximation::fromTrace(rep);

    std::cout << "Figure 3: hit-ratio curve from reuse distances vs "
                 "observed Greedy-Dual hit ratio\n(trace: "
              << rep.name() << ", " << rep.invocations().size()
              << " invocations; SHARDS rate 0.1)\n\n";

    const std::vector<MemMb> sizes = bench::largeMemorySweepMb();
    std::vector<SweepCell> cells;
    for (MemMb size_mb : sizes) {
        SweepCell cell = makeCell(rep, PolicyKind::GreedyDual, size_mb);
        cell.sim.memory_sample_interval_us = 0;
        cells.push_back(std::move(cell));
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);

    TablePrinter table({"Cache size (GB)", "Reuse-dist HR",
                        "SHARDS HR (R=0.1)", "Che approx HR",
                        "Observed GD HR", "GD drops"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const MemMb size_mb = sizes[i];
        const CellOutcome<SimResult>& cell = report.cells[i];
        table.addRow({formatDouble(size_mb / 1024.0, 0),
                      formatDouble(exact.hitRatio(size_mb), 3),
                      formatDouble(sampled.hitRatio(size_mb), 3),
                      formatDouble(che.hitRatio(size_mb), 3),
                      bench::cellText(
                          cell,
                          [](const SimResult& r) {
                              return r.total() > 0
                                  ? static_cast<double>(r.warm_starts) /
                                      static_cast<double>(r.total())
                                  : 0.0;
                          },
                          3),
                      bench::cellCount(cell, [](const SimResult& r) {
                          return r.dropped;
                      })});
    }
    table.print(std::cout);
    std::cout << "\nMax achievable hit ratio (compulsory-miss bound): "
              << formatDouble(exact.maxHitRatio(), 3) << "\n";
    return report.allOk() ? 0 : 1;
}
