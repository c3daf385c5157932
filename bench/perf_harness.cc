/**
 * @file
 * Perf-regression harness for the allocation-free hot paths (PR 5 pool
 * rebuild, PR 7 platform rebuild).
 *
 * Times the pool-churn micro-benchmarks through BOTH ContainerPool
 * backends, the fig6-style simulator sweep through both pool backends,
 * the fig8-style platform run through BOTH PlatformBackends (dense
 * arena queue + batched event admission vs the retained reference
 * deque path, pool backend held at Slab so the ratio isolates the
 * platform rebuild), plus the trace-generation reserve() win, and
 * emits a JSON report (BENCH_PR7.json) with per-bench wall-clock,
 * operations/sec, backend speedups, and peak RSS.
 *
 * The regression signal is the *speedup ratio* (reference backend
 * wall-clock / optimized wall-clock), not absolute times: each
 * reference backend is the pre-PR data structure kept alive as an
 * oracle, so the ratio is machine-speed-invariant and a CI smoke run
 * on any hardware can compare it against the committed baseline.
 *
 * Usage:
 *   perf_harness [--smoke] [--reps N] [--out PATH]
 *
 * --smoke shrinks op counts and skips the 100k-container benches so the
 * whole run fits in CI smoke budgets; scripts/run_benchmarks.sh --smoke
 * performs the baseline comparison.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/container_pool.h"
#include "core/policy_factory.h"
#include "platform/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep_runner.h"
#include "trace/azure_model.h"
#include "trace/samplers.h"
#include "util/rng.h"

using namespace faascache;

namespace {

struct HarnessOptions
{
    bool smoke = false;
    int reps = 3;
    std::string out_path;  // empty = stdout
};

struct BenchResult
{
    std::string name;
    std::int64_t ops = 0;
    double optimized_wall_s = 0.0;
    double reference_wall_s = 0.0;

    double optimizedOpsPerSec() const
    {
        return optimized_wall_s > 0
            ? static_cast<double>(ops) / optimized_wall_s
            : 0.0;
    }

    double referenceOpsPerSec() const
    {
        return reference_wall_s > 0
            ? static_cast<double>(ops) / reference_wall_s
            : 0.0;
    }

    double speedup() const
    {
        return optimized_wall_s > 0 ? reference_wall_s / optimized_wall_s
                                    : 0.0;
    }
};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-`reps` wall-clock of `body()`, seconds. */
template <typename Body>
double
bestOf(int reps, Body&& body)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double start = nowSeconds();
        body();
        const double elapsed = nowSeconds() - start;
        if (rep == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

FunctionSpec
specOf(FunctionId id)
{
    return makeFunction(id, "fn" + std::to_string(id),
                        64.0 + static_cast<double>(id % 16) * 32.0,
                        fromMillis(100),
                        fromMillis(100 + 50 * (id % 10)));
}

// ---------------------------------------------------------------------
// Pool micro-benches (mirror bench/micro_policy_ops.cc's churn loops).

constexpr std::size_t kContainersPerFunction = 64;

std::vector<ContainerId>
fillPoolDense(ContainerPool& pool, std::size_t num_containers)
{
    const std::size_t num_functions =
        std::max<std::size_t>(1, num_containers / kContainersPerFunction);
    std::vector<ContainerId> ids;
    ids.reserve(num_containers);
    for (std::size_t i = 0; i < num_containers; ++i) {
        Container& c = pool.add(
            specOf(static_cast<FunctionId>(i % num_functions)),
            static_cast<TimeUs>(i));
        ids.push_back(c.id());
    }
    return ids;
}

/** One timed pass of add/remove churn: `ops` evict-one-admit-one steps
 *  against a pool held at `num_containers`. */
void
runChurn(PoolBackend backend, std::size_t num_containers, std::int64_t ops)
{
    const std::size_t num_functions =
        std::max<std::size_t>(1, num_containers / kContainersPerFunction);
    ContainerPool pool(1e12, backend);
    pool.reserve(num_containers);
    std::vector<ContainerId> ids = fillPoolDense(pool, num_containers);

    Rng rng(13);
    TimeUs now = static_cast<TimeUs>(num_containers);
    for (std::int64_t op = 0; op < ops; ++op) {
        const std::size_t pick = rng.uniformInt(ids.size());
        now += 1;
        pool.remove(ids[pick]);
        Container& fresh = pool.add(
            specOf(static_cast<FunctionId>(rng.uniformInt(num_functions))),
            now);
        ids[pick] = fresh.id();
    }
}

/** One timed pass of busy/idle lifecycle churn driven by
 *  releaseFinished(), the pool-level busy-list walk. Neither engine
 *  releases this way: Simulator pops its own (busyUntil, id) finish
 *  schedule and Server releases in its Finish events. */
void
runLifecycle(PoolBackend backend, std::size_t num_containers,
             std::int64_t ops)
{
    constexpr std::size_t kBatch = 64;
    ContainerPool pool(1e12, backend);
    pool.reserve(num_containers);
    const std::vector<ContainerId> ids =
        fillPoolDense(pool, num_containers);

    Rng rng(17);
    TimeUs now = static_cast<TimeUs>(num_containers);
    for (std::int64_t op = 0; op < ops; op += kBatch) {
        for (std::size_t i = 0; i < kBatch; ++i) {
            Container* c = pool.get(ids[rng.uniformInt(ids.size())]);
            if (c != nullptr && c->idle())
                c->startInvocation(now, now + 1);
        }
        now += 2;
        (void)pool.releaseFinished(now);
    }
}

BenchResult
churnBench(const std::string& name, std::size_t num_containers,
           std::int64_t ops, int reps)
{
    BenchResult result;
    result.name = name;
    result.ops = ops;
    result.optimized_wall_s = bestOf(
        reps, [&] { runChurn(PoolBackend::Slab, num_containers, ops); });
    result.reference_wall_s = bestOf(reps, [&] {
        runChurn(PoolBackend::ReferenceMap, num_containers, ops);
    });
    return result;
}

BenchResult
lifecycleBench(const std::string& name, std::size_t num_containers,
               std::int64_t ops, int reps)
{
    BenchResult result;
    result.name = name;
    result.ops = ops;
    result.optimized_wall_s = bestOf(reps, [&] {
        runLifecycle(PoolBackend::Slab, num_containers, ops);
    });
    result.reference_wall_s = bestOf(reps, [&] {
        runLifecycle(PoolBackend::ReferenceMap, num_containers, ops);
    });
    return result;
}

// ---------------------------------------------------------------------
// End-to-end benches: miniature versions of the fig6 (cold-start sweep)
// and fig8 (server load) grids, replayed through both backends.

const Trace&
miniPopulation()
{
    static const Trace kPopulation = [] {
        AzureModelConfig config;
        config.seed = deriveCellSeed(2021, 1);
        config.num_functions = 400;
        config.duration_us = kHour;
        config.iat_median_sec = 60.0;
        config.max_rate_per_sec = 1.0;
        config.mem_median_mb = 64.0;
        config.mem_sigma = 0.7;
        config.mem_max_mb = 512.0;
        config.name = "perf-harness-population";
        return generateAzureTrace(config);
    }();
    return kPopulation;
}

const Trace&
miniRepresentative()
{
    static const Trace kTrace = sampleRepresentative(
        miniPopulation(), 120, deriveCellSeed(2021, 2));
    return kTrace;
}

/** fig6-style: simulator sweep of GD + TTL over two memory sizes. */
void
runFig6(PoolBackend backend)
{
    for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl}) {
        for (MemMb memory_mb : {3.0 * 1024.0, 6.0 * 1024.0}) {
            SimulatorConfig config;
            config.memory_mb = memory_mb;
            config.pool_backend = backend;
            const SimResult result = simulateTrace(
                miniRepresentative(), makePolicy(kind), config);
            if (result.warm_starts < 0)
                std::abort();  // defeat over-eager optimizers
        }
    }
}

/** fig8-style: one loaded platform-server replay under GD — the whole
 *  population against a single invoker, the paper's server-load
 *  regime. The pool backend stays Slab on both sides so the measured
 *  ratio isolates the PR 7 platform rebuild (arena request queue +
 *  batched event admission) from the PR 5 pool rebuild. */
void
runFig8(PlatformBackend backend)
{
    ServerConfig config;
    config.cores = 16;
    config.memory_mb = 8.0 * 1024.0;
    config.platform_backend = backend;
    const PlatformResult result =
        runPlatform(miniPopulation(), PolicyKind::GreedyDual, config);
    if (result.served() < 0)
        std::abort();
}

BenchResult
endToEndBench(const std::string& name, std::int64_t ops, int reps,
              void (*body)(PoolBackend))
{
    BenchResult result;
    result.name = name;
    result.ops = ops;
    result.optimized_wall_s =
        bestOf(reps, [&] { body(PoolBackend::Slab); });
    result.reference_wall_s =
        bestOf(reps, [&] { body(PoolBackend::ReferenceMap); });
    return result;
}

BenchResult
platformBench(const std::string& name, std::int64_t ops, int reps,
              void (*body)(PlatformBackend))
{
    BenchResult result;
    result.name = name;
    result.ops = ops;
    result.optimized_wall_s =
        bestOf(reps, [&] { body(PlatformBackend::Dense); });
    result.reference_wall_s =
        bestOf(reps, [&] { body(PlatformBackend::Reference); });
    return result;
}

// ---------------------------------------------------------------------
// Trace-generation reserve() win: append the population's invocation
// stream into a Trace with and without the new reserve() hints.

BenchResult
traceReserveBench(int reps)
{
    const Trace& source = miniPopulation();
    const auto append_all = [&](bool reserve) {
        Trace out("reserve-bench");
        if (reserve) {
            out.reserveFunctions(source.functions().size());
            out.reserveInvocations(source.invocations().size());
        }
        for (const FunctionSpec& spec : source.functions())
            out.addFunction(spec);
        for (const Invocation& inv : source.invocations())
            out.addInvocation(inv.function, inv.arrival_us);
        if (out.invocations().size() != source.invocations().size())
            std::abort();
    };

    BenchResult result;
    result.name = "trace_reserve";
    result.ops = static_cast<std::int64_t>(source.invocations().size());
    // More inner repetitions: a single append pass is microseconds.
    const int inner = 50;
    result.optimized_wall_s = bestOf(reps, [&] {
        for (int i = 0; i < inner; ++i)
            append_all(true);
    });
    result.reference_wall_s = bestOf(reps, [&] {
        for (int i = 0; i < inner; ++i)
            append_all(false);
    });
    result.ops *= inner;
    return result;
}

// ---------------------------------------------------------------------

void
writeJson(std::ostream& out, const HarnessOptions& options,
          const std::vector<BenchResult>& benches)
{
    char buffer[64];
    const auto num = [&](double value) {
        std::snprintf(buffer, sizeof buffer, "%.6g", value);
        return std::string(buffer);
    };
    out << "{\n";
    out << "  \"schema\": \"faascache-bench-pr7-v1\",\n";
    out << "  \"mode\": \"" << (options.smoke ? "smoke" : "full")
        << "\",\n";
    out << "  \"reps\": " << options.reps << ",\n";
    out << "  \"peak_rss_mb\": " << num(peakRssMb()) << ",\n";
    out << "  \"benches\": [\n";
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const BenchResult& b = benches[i];
        out << "    {\n";
        out << "      \"name\": \"" << b.name << "\",\n";
        out << "      \"ops\": " << b.ops << ",\n";
        out << "      \"optimized_wall_s\": " << num(b.optimized_wall_s)
            << ",\n";
        out << "      \"reference_wall_s\": " << num(b.reference_wall_s)
            << ",\n";
        out << "      \"optimized_ops_per_sec\": "
            << num(b.optimizedOpsPerSec()) << ",\n";
        out << "      \"reference_ops_per_sec\": "
            << num(b.referenceOpsPerSec()) << ",\n";
        out << "      \"speedup\": " << num(b.speedup()) << "\n";
        out << "    }" << (i + 1 < benches.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

HarnessOptions
parseArgs(int argc, char** argv)
{
    HarnessOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            options.smoke = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            options.reps = std::max(1, std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            options.out_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--smoke] [--reps N] [--out PATH]\n";
            return options;
        }
    }
    return options;
}

}  // namespace

int
main(int argc, char** argv)
{
    const HarnessOptions options = parseArgs(argc, argv);
    const int reps = options.smoke ? std::min(options.reps, 2)
                                   : options.reps;
    const std::int64_t churn_ops = options.smoke ? 200'000 : 2'000'000;
    const std::int64_t lifecycle_ops = options.smoke ? 100'000 : 1'000'000;

    std::vector<BenchResult> benches;
    std::cerr << "perf_harness: pool churn...\n";
    benches.push_back(churnBench("pool_churn_1k", 1'000, churn_ops, reps));
    benches.push_back(
        churnBench("pool_churn_10k", 10'000, churn_ops, reps));
    if (!options.smoke) {
        benches.push_back(
            churnBench("pool_churn_100k", 100'000, churn_ops, reps));
    }
    std::cerr << "perf_harness: pool lifecycle...\n";
    benches.push_back(
        lifecycleBench("pool_lifecycle_10k", 10'000, lifecycle_ops, reps));
    if (!options.smoke) {
        benches.push_back(lifecycleBench("pool_lifecycle_100k", 100'000,
                                         lifecycle_ops, reps));
    }

    // Amortize the (untimed) population build before the timed benches.
    const auto invocations =
        static_cast<std::int64_t>(miniRepresentative().invocations().size());
    std::cerr << "perf_harness: fig6 end-to-end ("
              << invocations << " invocations per run)...\n";
    benches.push_back(
        endToEndBench("fig6_mini", 4 * invocations, reps, runFig6));
    std::cerr << "perf_harness: fig8 end-to-end...\n";
    const auto population_invocations =
        static_cast<std::int64_t>(miniPopulation().invocations().size());
    benches.push_back(platformBench("fig8_mini", population_invocations,
                                    reps, runFig8));
    std::cerr << "perf_harness: trace reserve...\n";
    benches.push_back(traceReserveBench(reps));

    if (options.out_path.empty()) {
        writeJson(std::cout, options, benches);
    } else {
        std::ofstream out(options.out_path);
        if (!out) {
            std::cerr << "perf_harness: cannot write "
                      << options.out_path << "\n";
            return 1;
        }
        writeJson(out, options, benches);
        std::cerr << "perf_harness: wrote " << options.out_path << "\n";
    }
    for (const BenchResult& b : benches) {
        std::fprintf(stderr, "  %-20s opt  %8.4fs  ref %8.4fs  %5.2fx\n",
                     b.name.c_str(), b.optimized_wall_s,
                     b.reference_wall_s, b.speedup());
    }
    return 0;
}
