#include "sim/sweep_runner.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/sweep_checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace faascache {

namespace {

/** @throws std::invalid_argument naming the first malformed cell. */
void
validateCells(const std::vector<SweepCell>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].trace == nullptr && !cells[i].make_source)
            throw std::invalid_argument(
                "SweepRunner: cell without a workload — set trace or "
                "make_source (cell index " +
                std::to_string(i) + ")");
        if (cells[i].trace != nullptr && cells[i].make_source)
            throw std::invalid_argument(
                "SweepRunner: cell with both trace and make_source set "
                "(cell index " +
                std::to_string(i) + ")");
        if (!cells[i].make_policy)
            throw std::invalid_argument(
                "SweepRunner: cell without a policy (cell index " +
                std::to_string(i) + ")");
    }
}

std::string
defaultCellKey(const SweepCell& cell)
{
    // The policy and source factories must be pure, so building one
    // instance just to read its name is side-effect free.
    const std::string policy_name = cell.make_policy()->name();
    const std::string trace_name = cell.trace != nullptr
        ? cell.trace->name()
        : cell.make_source()->name();
    char mem[32];
    std::snprintf(mem, sizeof mem, "%g", cell.sim.memory_mb);
    return trace_name + "/" + policy_name + "/" + mem + "MB";
}

void
hashHexDouble(std::ostringstream& out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", value);
    out << buf << ';';
}

/**
 * Workload-header bytes shared by both fingerprint flavours; the
 * invocation stream is folded incrementally afterwards (FNV-1a is
 * byte-sequential, so chaining fnv1a64 over pieces equals hashing the
 * concatenation).
 */
std::string
workloadHeaderBytes(const std::string& name,
                    const std::vector<FunctionSpec>& functions)
{
    std::ostringstream out;
    out << name << ';';
    for (const FunctionSpec& spec : functions) {
        out << spec.id << ';' << spec.name << ';';
        hashHexDouble(out, spec.mem_mb);
        hashHexDouble(out, spec.cpu_units);
        hashHexDouble(out, spec.io_units);
        out << spec.warm_us << ';' << spec.cold_us << ';';
    }
    return out.str();
}

std::uint64_t
foldInvocation(std::uint64_t hash, const Invocation& inv)
{
    char buf[64];
    const int len =
        std::snprintf(buf, sizeof buf, "%" PRIu32 ",%" PRId64 ";",
                      inv.function, inv.arrival_us);
    return fnv1a64(std::string_view(buf, static_cast<std::size_t>(len)),
                   hash);
}

}  // namespace

std::uint64_t
traceFingerprint(const Trace& trace)
{
    std::uint64_t hash =
        fnv1a64(workloadHeaderBytes(trace.name(), trace.functions()));
    for (const Invocation& inv : trace.invocations())
        hash = foldInvocation(hash, inv);
    return hash;
}

std::uint64_t
sourceFingerprint(InvocationSource& source)
{
    std::uint64_t hash =
        fnv1a64(workloadHeaderBytes(source.name(), source.functions()));
    source.reset();
    Invocation inv;
    while (source.next(inv))
        hash = foldInvocation(hash, inv);
    source.reset();
    return hash;
}

SweepCell
makeCell(const Trace& trace, PolicyKind kind, MemMb memory_mb,
         const PolicyConfig& policy_config)
{
    SweepCell cell;
    cell.trace = &trace;
    cell.make_policy = [kind, policy_config]() {
        return makePolicy(kind, policy_config);
    };
    cell.sim.memory_mb = memory_mb;
    return cell;
}

SweepCell
makeStreamCell(std::function<std::unique_ptr<InvocationSource>()> make_source,
               PolicyKind kind, MemMb memory_mb,
               const PolicyConfig& policy_config)
{
    SweepCell cell;
    cell.make_source = std::move(make_source);
    cell.make_policy = [kind, policy_config]() {
        return makePolicy(kind, policy_config);
    };
    cell.sim.memory_mb = memory_mb;
    return cell;
}

std::uint64_t
deriveCellSeed(std::uint64_t base_seed, std::uint64_t cell_key)
{
    // Two SplitMix64 finalizer rounds decorrelate sequential keys and
    // sequential base seeds; the asymmetric constant keeps
    // deriveCellSeed(a, b) != deriveCellSeed(b, a).
    return Rng::hashMix(Rng::hashMix(base_seed ^ 0x9e3779b97f4a7c15ULL) +
                        Rng::hashMix(cell_key));
}

std::vector<std::string>
sweepCellKeys(const std::vector<SweepCell>& cells)
{
    validateCells(cells);
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const SweepCell& cell : cells)
        keys.push_back(cell.key.empty() ? defaultCellKey(cell) : cell.key);
    return dedupeSweepKeys(std::move(keys));
}

std::uint64_t
sweepGridFingerprint(const std::vector<SweepCell>& cells)
{
    const std::vector<std::string> keys = sweepCellKeys(cells);
    // Traces are shared across the grid; hash each distinct one once.
    std::unordered_map<const Trace*, std::uint64_t> trace_hashes;
    std::ostringstream out;
    out << "faascache-sweep-grid-v1;" << cells.size() << ';';
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell& cell = cells[i];
        std::uint64_t workload_hash = 0;
        if (cell.trace != nullptr) {
            auto it = trace_hashes.find(cell.trace);
            if (it == trace_hashes.end())
                it = trace_hashes
                         .emplace(cell.trace,
                                  traceFingerprint(*cell.trace))
                         .first;
            workload_hash = it->second;
        } else {
            // Caller-provided identity, or one streaming pass when the
            // caller left it unset. Equals traceFingerprint() of the
            // equivalent trace, so a checkpoint is portable between
            // the materialized and streamed shapes of one workload.
            workload_hash = cell.source_fingerprint != 0
                ? cell.source_fingerprint
                : sourceFingerprint(*cell.make_source());
        }
        out << keys[i] << ';';
        char trace_hash[24];
        std::snprintf(trace_hash, sizeof trace_hash, "%016" PRIx64,
                      workload_hash);
        out << trace_hash << ';';
        hashHexDouble(out, cell.sim.memory_mb);
        out << cell.sim.memory_sample_interval_us << ';'
            << (cell.sim.enable_prewarm ? 1 : 0) << ';'
            << cell.sim.background_reclaim_interval_us << ';';
        hashHexDouble(out, cell.sim.background_free_target_mb);
        // Mixed in for completeness only: both backends are observably
        // identical, but a resumed sweep should still notice the knob
        // changed under it.
        out << poolBackendName(cell.sim.pool_backend) << ';';
        out << cell.rng_seed << ';';
    }
    return fnv1a64(out.str());
}

struct SweepRunner::Impl
{
    explicit Impl(std::size_t jobs) : pool(jobs) {}

    ThreadPool pool;
};

SweepRunner::SweepRunner(std::size_t jobs)
    : impl_(std::make_unique<Impl>(jobs))
{
}

SweepRunner::~SweepRunner() = default;

std::size_t
SweepRunner::jobs() const
{
    return impl_->pool.size();
}

std::vector<SimResult>
SweepRunner::run(const std::vector<SweepCell>& cells)
{
    SweepOptions options;
    options.strict = true;
    return runReport(cells, options).results();
}

SweepReport<SimResult>
SweepRunner::runReport(const std::vector<SweepCell>& cells,
                       const SweepOptions& options)
{
    return runJournaledSweep<SimResult>(
        impl_->pool, sweepCellKeys(cells),
        [&cells]() { return sweepGridFingerprint(cells); }, options,
        "SweepRunner",
        [&cells](std::size_t index, const CancellationToken& token) {
            const SweepCell& cell = cells[index];
            SimulatorConfig config = cell.sim;
            config.cancel = &token;
            if (cell.make_source) {
                const std::unique_ptr<InvocationSource> source =
                    cell.make_source();
                return simulateSource(*source, cell.make_policy(),
                                      config);
            }
            return simulateTrace(*cell.trace, cell.make_policy(), config);
        },
        encodeCheckpointPayload, decodeCheckpointPayload);
}

std::vector<SimResult>
runSweep(const std::vector<SweepCell>& cells, std::size_t jobs)
{
    SweepRunner runner(jobs);
    return runner.run(cells);
}

SweepReport<SimResult>
runSweepReport(const std::vector<SweepCell>& cells, std::size_t jobs,
               const SweepOptions& options)
{
    SweepRunner runner(jobs);
    return runner.runReport(cells, options);
}

}  // namespace faascache
