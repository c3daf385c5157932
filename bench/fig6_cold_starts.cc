/**
 * @file
 * Reproduces Figure 6 (a, b, c): the fraction of cold starts for all
 * seven keep-alive policies across cache sizes, on the REPRESENTATIVE,
 * RARE, and RANDOM traces. The miss-ratio view of Figure 5 — the paper
 * notes the two do not rank policies identically because classic miss
 * ratios ignore the (initialization) miss cost.
 *
 * The whole (trace x memory x policy) grid runs through the parallel
 * SweepRunner; pass `--jobs N` to pick the worker count (default:
 * hardware concurrency). Output is byte-identical for any N. The
 * crash-safety flags `--deadline-s X`, `--retries N`, and
 * `--ckpt PATH [--resume]` bound, retry, and checkpoint/resume the
 * sweep; failed cells render as ERR instead of aborting the table.
 *
 * `--streamed` compiles each subfigure's trace to a temporary
 * `.ftrace` file and runs the grid on mmap-backed stream cells
 * (DESIGN.md §4h) instead of materialized traces. The output — and the
 * checkpoint journal, thanks to the portable workload fingerprint — is
 * byte-identical to the default mode; CI's kill-and-resume smoke runs
 * this mode to cover checkpoint/resume over streamed cells.
 */
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/policy_factory.h"
#include "sim/sweep_runner.h"
#include "trace/ftrace_format.h"
#include "trace/invocation_source.h"
#include "util/table.h"
#include "workloads.h"

using namespace faascache;

namespace {

struct Subfigure
{
    const char* label;
    Trace trace;
    std::vector<MemMb> sizes;
};

/** Cells for one subfigure; with a non-empty `ftrace_path` the cells
 *  stream the compiled trace instead of holding the materialized one. */
std::vector<SweepCell>
cellsOf(const Subfigure& sub, const std::string& ftrace_path)
{
    // Every stream cell of a subfigure replays the same file, so one
    // streaming pass fingerprints them all; left unset, the checkpoint
    // fingerprint would stream the file once per cell.
    std::uint64_t source_fingerprint = 0;
    if (!ftrace_path.empty()) {
        FtraceSource source(ftrace_path);
        source_fingerprint = sourceFingerprint(source);
    }
    std::vector<SweepCell> cells;
    for (MemMb size_mb : sub.sizes) {
        for (PolicyKind kind : allPolicyKinds()) {
            SweepCell cell = ftrace_path.empty()
                ? makeCell(sub.trace, kind, size_mb)
                : makeStreamCell(
                      [ftrace_path]() {
                          return std::make_unique<FtraceSource>(
                              ftrace_path);
                      },
                      kind, size_mb);
            cell.sim.memory_sample_interval_us = 0;
            cell.source_fingerprint = source_fingerprint;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

void
printSubfigure(const Subfigure& sub,
               const std::vector<CellOutcome<SimResult>>& outcomes)
{
    std::cout << sub.label << " — trace '" << sub.trace.name() << "'\n\n";

    std::vector<std::string> headers = {"Memory (GB)"};
    for (PolicyKind kind : allPolicyKinds())
        headers.push_back(policyKindName(kind));
    TablePrinter table(std::move(headers));

    std::size_t next = 0;
    for (MemMb size_mb : sub.sizes) {
        std::vector<std::string> row = {formatDouble(size_mb / 1024.0, 0)};
        for (PolicyKind kind : allPolicyKinds()) {
            (void)kind;
            row.push_back(bench::cellText(
                outcomes[next++],
                [](const SimResult& r) { return r.coldStartPercent(); },
                2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    bool streamed = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--streamed") == 0)
            streamed = true;

    std::cout << "Figure 6: % cold starts (lower is better)\n\n";
    const Trace pop = bench::population();
    const Subfigure subfigures[] = {
        {"(a) Representative functions", bench::representativeTrace(pop),
         bench::largeMemorySweepMb()},
        {"(b) Rare functions", bench::rareTrace(pop),
         bench::largeMemorySweepMb()},
        {"(c) Random sampling", bench::randomTrace(pop),
         bench::smallMemorySweepMb()},
    };

    // --streamed: compile each subfigure trace to a private temp
    // .ftrace (pid-keyed so concurrent CI runs cannot collide) and
    // sweep mmap-backed stream cells instead.
    std::vector<std::string> ftrace_paths(std::size(subfigures));
    if (streamed) {
        for (std::size_t i = 0; i < std::size(subfigures); ++i) {
            ftrace_paths[i] = "/tmp/fig6_stream_" +
                std::to_string(getpid()) + "_" + std::to_string(i) +
                ".ftrace";
            TraceSource source(subfigures[i].trace);
            writeFtraceFile(ftrace_paths[i], source);
        }
    }

    std::vector<SweepCell> cells;
    for (std::size_t i = 0; i < std::size(subfigures); ++i) {
        std::vector<SweepCell> sub_cells =
            cellsOf(subfigures[i], ftrace_paths[i]);
        cells.insert(cells.end(),
                     std::make_move_iterator(sub_cells.begin()),
                     std::make_move_iterator(sub_cells.end()));
    }
    const auto report = bench::runBenchSweep(
        cells, bench::parseBenchArgs(argc, argv), runSweepReport);
    for (const std::string& path : ftrace_paths)
        if (!path.empty())
            std::remove(path.c_str());

    std::size_t offset = 0;
    for (const Subfigure& sub : subfigures) {
        const std::size_t count =
            sub.sizes.size() * allPolicyKinds().size();
        printSubfigure(sub, {report.cells.begin() + offset,
                             report.cells.begin() + offset + count});
        offset += count;
    }
    return report.allOk() ? 0 : 1;
}
