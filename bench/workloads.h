/**
 * @file
 * Canonical workloads and sweep grids shared by the bench harnesses.
 *
 * All figure/table benches derive their traces from one synthetic Azure
 * population (DESIGN.md §1 documents the substitution) using the
 * paper's three sampling recipes, so the numbers across benches are
 * mutually consistent.
 *
 * Seeding: every stochastic step (population generation, each sampling
 * recipe) runs on its own stream derived SplitMix64-style from the
 * single bench base seed via deriveCellSeed(). Streams are keyed by
 * stable constants, never by grid position, so adding a policy, a
 * memory size, or a whole subfigure to a sweep can never perturb the
 * trace another cell replays.
 */
#ifndef FAASCACHE_BENCH_WORKLOADS_H_
#define FAASCACHE_BENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "platform/experiment.h"
#include "provisioning/elastic_sweep.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/samplers.h"
#include "trace/trace.h"
#include "util/cancellation.h"
#include "util/table.h"

namespace faascache::bench {

/** Base seed every bench stream is derived from. */
inline constexpr std::uint64_t kBenchSeed = 2021;

/** Stable stream keys for the derived bench seeds. */
enum BenchStream : std::uint64_t
{
    kStreamPopulation = 1,
    kStreamRepresentative = 2,
    kStreamRare = 3,
    kStreamRandom = 4,
};

/** The seed of one named bench stream. */
inline std::uint64_t
streamSeed(BenchStream stream)
{
    return deriveCellSeed(kBenchSeed, stream);
}

/** The population every sample is drawn from (deterministic). */
inline Trace
population()
{
    AzureModelConfig config;
    config.seed = streamSeed(kStreamPopulation);
    config.num_functions = 2000;
    config.duration_us = 2 * kHour;
    config.iat_median_sec = 120.0;
    config.max_rate_per_sec = 2.0;
    // Per-function memory: the Azure trace reports memory per *app*,
    // split across the app's functions, so per-function footprints are
    // small (tens to a few hundred MB).
    config.mem_median_mb = 64.0;
    config.mem_sigma = 0.7;
    config.mem_max_mb = 512.0;
    config.name = "azure-synthetic-population";
    return generateAzureTrace(config);
}

/** REPRESENTATIVE sample: 400 functions, one quarter per frequency
 *  quartile (Table 2 row 1). */
inline Trace
representativeTrace(const Trace& pop)
{
    return sampleRepresentative(pop, 400, streamSeed(kStreamRepresentative));
}

/** RARE sample: 1000 of the most infrequently invoked functions
 *  (Table 2 row 2). */
inline Trace
rareTrace(const Trace& pop)
{
    return sampleRare(pop, 1000, streamSeed(kStreamRare));
}

/** RANDOM sample: 200 functions chosen uniformly (Table 2 row 3). */
inline Trace
randomTrace(const Trace& pop)
{
    return sampleRandom(pop, 200, streamSeed(kStreamRandom));
}

/** Memory sweep (MB) for the REPRESENTATIVE and RARE figures. */
inline std::vector<MemMb>
largeMemorySweepMb()
{
    std::vector<MemMb> sizes;
    for (double gb : {5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0})
        sizes.push_back(gb * 1024.0);
    return sizes;
}

/** Memory sweep (MB) for the RANDOM figure (smaller active set). */
inline std::vector<MemMb>
smallMemorySweepMb()
{
    std::vector<MemMb> sizes;
    for (double gb : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0})
        sizes.push_back(gb * 1024.0);
    return sizes;
}

/** Shared bench command-line options (crash-safe sweep driving). */
struct BenchOptions
{
    /** Sweep worker count; 0 = hardware concurrency. */
    std::size_t jobs = 0;

    /** Deadline, retries and checkpoint knobs of the sweep; the
     *  signal-bound cancellation token is attached per run. */
    SweepOptions sweep;
};

/**
 * Parse the shared bench command line:
 *   --jobs N        sweep worker count (0/absent = hardware concurrency)
 *   --deadline-s X  per-cell wall-clock deadline in seconds
 *   --retries N     extra attempts for failed/timed-out cells
 *   --ckpt PATH     journal completed cells to PATH as they finish
 *   --resume        restore completed cells from --ckpt before running
 * Every flag also accepts the --flag=value form. Exits with usage on
 * malformed input; unknown arguments are ignored (benches may layer
 * their own flags).
 */
inline BenchOptions
parseBenchArgs(int argc, char** argv)
{
    const auto usage = [&]() {
        std::cerr << "usage: " << argv[0]
                  << " [--jobs N] [--deadline-s X] [--retries N]"
                     " [--ckpt PATH [--resume]]\n";
        std::exit(2);
    };
    const auto parse_size = [&](const char* text) -> std::size_t {
        char* end = nullptr;
        const unsigned long value = std::strtoul(text, &end, 10);
        if (end == text || *end != '\0')
            usage();
        return static_cast<std::size_t>(value);
    };
    const auto parse_double = [&](const char* text) -> double {
        char* end = nullptr;
        const double value = std::strtod(text, &end);
        if (end == text || *end != '\0' || value < 0.0)
            usage();
        return value;
    };
    // Value of `--name V` / `--name=V`, or nullptr when argv[i] is not
    // this flag; advances i past a detached value.
    const auto value_of = [&](const char* name, int& i) -> const char* {
        const std::size_t len = std::strlen(name);
        if (std::strcmp(argv[i], name) == 0) {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        }
        if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
            return argv[i] + len + 1;
        return nullptr;
    };

    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        if (const char* v = value_of("--jobs", i))
            options.jobs = parse_size(v);
        else if (const char* v = value_of("--deadline-s", i))
            options.sweep.deadline_s = parse_double(v);
        else if (const char* v = value_of("--retries", i))
            options.sweep.max_retries = static_cast<int>(parse_size(v));
        else if (const char* v = value_of("--ckpt", i))
            options.sweep.checkpoint_path = v;
        else if (std::strcmp(argv[i], "--resume") == 0)
            options.sweep.resume = true;
    }
    if (options.sweep.resume && options.sweep.checkpoint_path.empty()) {
        std::cerr << argv[0] << ": --resume requires --ckpt PATH\n";
        std::exit(2);
    }
    return options;
}

/**
 * Run a sweep of any result kind under the crash-safety harness with
 * the bench's shared behaviour. `run_report` is the flavour's entry
 * point (runSweepReport, runPlatformSweepReport, runClusterSweepReport
 * or runElasticSweepReport):
 *  - SIGINT/SIGTERM cancel outstanding cells, completed cells are kept
 *    (and journaled when --ckpt is set), and the bench exits 128+sig
 *    after printing progress (with a resume hint when --ckpt is set);
 *  - --ckpt journals every completed cell; --resume restores from the
 *    journal (announced on stderr) and re-runs only missing cells;
 *  - failed/timed-out cells are reported to stderr and rendered as ERR
 *    by the caller's table (cellText below); they never abort the run.
 */
template <typename Cell, typename RunReport>
inline auto
runBenchSweep(const std::vector<Cell>& cells, const BenchOptions& options,
              RunReport run_report)
{
    CancellationToken cancel;
    ScopedSignalCancellation signals(cancel);

    SweepOptions sweep = options.sweep;
    sweep.cancel = &cancel;
    auto report = run_report(cells, options.jobs, sweep);

    if (report.restored > 0) {
        std::cerr << "sweep: restored " << report.restored << " of "
                  << report.cells.size() << " cells from checkpoint "
                  << sweep.checkpoint_path << "\n";
    }
    if (!report.completed) {
        const std::size_t done =
            report.countWithStatus(CellStatus::Ok);
        std::cerr << "sweep: interrupted by signal "
                  << ScopedSignalCancellation::lastSignal() << "; "
                  << done << " of " << report.cells.size()
                  << " cells completed";
        if (!sweep.checkpoint_path.empty())
            std::cerr << " (journaled to " << sweep.checkpoint_path
                      << "; rerun with --resume to continue)";
        std::cerr << "\n";
        std::exit(128 + ScopedSignalCancellation::lastSignal());
    }
    for (const auto& cell : report.cells) {
        if (cell.ok())
            continue;
        std::cerr << "ERR cell " << cell.key << " ["
                  << cellStatusName(cell.status) << "]: " << cell.error;
        if (cell.attempts > 1)
            std::cerr << " (after " << cell.attempts << " attempts)";
        std::cerr << "\n";
    }
    return report;
}

/**
 * Table text of one cell metric: formatDouble(metric(result)) when the
 * cell produced a result, the explicit "ERR" marker otherwise.
 */
template <typename Result, typename Metric>
inline std::string
cellText(const CellOutcome<Result>& cell, Metric metric, int precision)
{
    if (!cell.ok())
        return "ERR";
    return formatDouble(metric(cell.result), precision);
}

/** Table text of one integral cell metric ("ERR" when the cell has no
 *  result). */
template <typename Result, typename Metric>
inline std::string
cellCount(const CellOutcome<Result>& cell, Metric metric)
{
    if (!cell.ok())
        return "ERR";
    return std::to_string(metric(cell.result));
}

}  // namespace faascache::bench

#endif  // FAASCACHE_BENCH_WORKLOADS_H_
