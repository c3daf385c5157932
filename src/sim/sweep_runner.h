/**
 * @file
 * The deterministic, crash-safe parallel experiment engine.
 *
 * Every figure/table bench replays a grid of independent simulation
 * cells — (trace sample, policy spec, memory_mb) tuples. The SweepRunner
 * fans those cells across a fixed-size thread pool and merges the
 * SimResults back in submission order, so the output of a sweep is
 * byte-identical regardless of the worker count (jobs=1 and jobs=64
 * produce the same bytes).
 *
 * Determinism contract:
 *  - a cell owns everything mutable it touches: the policy is built
 *    inside the worker via the cell's factory, the Simulator is local,
 *    and the result is written only to the cell's own output slot;
 *  - traces are shared read-only (const Trace*) and must outlive run();
 *  - any stochastic behaviour a cell needs must flow through the cell's
 *    `rng_seed`, which callers derive per cell via deriveCellSeed() so
 *    adding, removing, or reordering other cells never perturbs it.
 *
 * Crash-safety (this layer's robustness contract, DESIGN.md §4b):
 *  - **Failure isolation** — runReport() resolves every cell to a
 *    CellOutcome (ok | failed | timed_out | skipped) instead of letting
 *    one poisoned cell abort the sweep; run() keeps the historical
 *    strict throw-on-first-failure semantics.
 *  - **Watchdog deadlines** — SweepOptions::deadline_s bounds each
 *    attempt's wall-clock time; a monitor thread cancels stragglers
 *    through the simulator's cooperative CancellationToken.
 *  - **Bounded retry** — failed/timed-out cells are re-run up to
 *    `max_retries` times; every attempt replays the same cell.
 *  - **Checkpoint/resume** — with a checkpoint_path, every completed
 *    cell is journaled (SimResult codec in sim/sweep_checkpoint.h,
 *    driver in util/sweep_journal.h) as it finishes; a
 *    resumed sweep restores journaled cells, validates the grid
 *    fingerprint, and re-runs only what is missing, producing output
 *    byte-identical to an uninterrupted run.
 *  - **Clean cancellation** — an external token (typically bound to
 *    SIGINT/SIGTERM via ScopedSignalCancellation) stops the sweep:
 *    running cells unwind, pending ones are marked skipped, completed
 *    outcomes (and their journal records) are preserved.
 */
#ifndef FAASCACHE_SIM_SWEEP_RUNNER_H_
#define FAASCACHE_SIM_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "sim/sim_result.h"
#include "sim/simulator.h"
#include "trace/invocation_source.h"
#include "trace/trace.h"
#include "util/sweep_journal.h"

namespace faascache {

/** One independent simulation: (workload, policy spec, simulator knobs).
 *  The workload is either a materialized `trace` or a streaming
 *  `make_source` factory — exactly one must be set. */
struct SweepCell
{
    /** Workload to replay (non-owning; must outlive the sweep). */
    const Trace* trace = nullptr;

    /**
     * Streaming workload (DESIGN.md §4h), the alternative to `trace`:
     * builds a fresh InvocationSource inside the worker thread for
     * every attempt, so oversized workloads sweep without ever being
     * materialized. Must be pure — each call returns an independent
     * cursor over the same stream (e.g. a fresh FtraceSource over one
     * shared FtraceFile, or a re-seeded generator).
     */
    std::function<std::unique_ptr<InvocationSource>()> make_source;

    /**
     * Workload identity for `make_source` cells, mixed into the sweep
     * grid fingerprint in place of the trace hash. Fill with
     * sourceFingerprint() (one extra streaming pass, identical to
     * traceFingerprint() of the equivalent trace) or any stable hash
     * of the underlying artifact (e.g. the .ftrace header checksum).
     * Left 0, the runner computes sourceFingerprint() itself when a
     * grid fingerprint is needed (checkpointing / runReport).
     */
    std::uint64_t source_fingerprint = 0;

    /**
     * Builds the cell's policy inside the worker thread. Must be pure
     * (no shared mutable state) so cells stay independent.
     */
    std::function<std::unique_ptr<KeepAlivePolicy>()> make_policy;

    /** Simulator knobs (memory_mb is the grid's memory axis). */
    SimulatorConfig sim;

    /**
     * Per-cell RNG stream seed for stochastic cell extensions. Not read
     * by the (deterministic) simulator itself; carried so stochastic
     * cells have a collision-free stream. Fill via deriveCellSeed().
     */
    std::uint64_t rng_seed = 0;

    /**
     * Stable cell identity for checkpointing and error reports. Leave
     * empty to have the runner derive "<trace>/<policy>/<memory>" (with
     * a "#n" suffix when that collides); set it explicitly when the
     * grid varies knobs that derivation cannot see.
     */
    std::string key;
};

/** Convenience: a cell for one of the paper's named policies. */
SweepCell makeCell(const Trace& trace, PolicyKind kind, MemMb memory_mb,
                   const PolicyConfig& policy_config = {});

/** Streaming convenience: a cell replaying `make_source` (see
 *  SweepCell::make_source; factory must be pure). */
SweepCell makeStreamCell(
    std::function<std::unique_ptr<InvocationSource>()> make_source,
    PolicyKind kind, MemMb memory_mb,
    const PolicyConfig& policy_config = {});

/**
 * Derive the seed of cell `cell_key` from the sweep's base seed,
 * SplitMix64-style (util/rng hashMix chain). Distinct keys give
 * statistically independent streams, and a cell's seed depends only on
 * (base, its own key) — never on how many other cells exist. Callers
 * should key cells by stable coordinates (e.g. trace-id × policy-id ×
 * memory index), not by running position in the grid.
 */
std::uint64_t deriveCellSeed(std::uint64_t base_seed, std::uint64_t cell_key);

/**
 * Effective per-cell keys: cell.key where set, otherwise
 * "<trace>/<policy>/<memory_mb MB>", with "#n" appended to later
 * duplicates so every key is unique. Requires validated cells
 * (non-null trace and policy factory).
 */
std::vector<std::string> sweepCellKeys(const std::vector<SweepCell>& cells);

/**
 * Fingerprint of the whole sweep grid: trace contents (names, specs,
 * invocations), effective cell keys, the memory axis and simulator
 * knobs, and rng seeds. Two sweeps share a fingerprint iff they would
 * replay the same cells, which is the safety check behind --resume.
 */
std::uint64_t sweepGridFingerprint(const std::vector<SweepCell>& cells);

/**
 * Fingerprint of one trace's contents (name, function specs,
 * invocation stream). The building block every sweep-grid fingerprint
 * — sim, platform, cluster, elastic — mixes per distinct trace.
 */
std::uint64_t traceFingerprint(const Trace& trace);

/**
 * Streaming twin of traceFingerprint(): hashes name, function specs,
 * and the full invocation stream in one O(1)-memory pass, producing
 * the exact value traceFingerprint() gives for the equivalent
 * materialized trace (so a sweep checkpoint taken against a Trace
 * resumes against the streamed same workload and vice versa). Leaves
 * the source reset to the beginning.
 */
std::uint64_t sourceFingerprint(InvocationSource& source);

/** Fans sweep cells across a worker pool; results in submission order. */
class SweepRunner
{
  public:
    /**
     * @param jobs Worker threads; 0 selects hardware_concurrency().
     *             jobs=1 still runs through the pool (one worker) and is
     *             bit-identical to a direct serial loop.
     */
    explicit SweepRunner(std::size_t jobs = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner&) = delete;
    SweepRunner& operator=(const SweepRunner&) = delete;

    /** Worker count actually in use. */
    std::size_t jobs() const;

    /**
     * Run every cell and return results indexed like `cells`. Each
     * result's policy_name/memory_mb come from the cell's own policy
     * and config, exactly as a serial simulateTrace() loop would
     * produce. Rethrows the first cell failure, if any (strict mode).
     */
    std::vector<SimResult> run(const std::vector<SweepCell>& cells);

    /**
     * Run every cell under the crash-safety harness and return per-cell
     * outcomes indexed like `cells`. Never throws for a cell's own
     * failure unless options.strict is set.
     *
     * @throws std::invalid_argument when a cell is malformed (null
     *         trace or missing policy factory), naming the offending
     *         cell index — malformed grids are caller bugs, detected
     *         up front before any cell runs.
     * @throws std::runtime_error when options.resume is set and the
     *         checkpoint cannot be read or belongs to a different grid.
     */
    SweepReport<SimResult> runReport(const std::vector<SweepCell>& cells,
                                     const SweepOptions& options = {});

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One-shot convenience: construct a runner, run the cells. */
std::vector<SimResult> runSweep(const std::vector<SweepCell>& cells,
                                std::size_t jobs = 0);

/** One-shot convenience for the harnessed flavour. */
SweepReport<SimResult> runSweepReport(const std::vector<SweepCell>& cells,
                                      std::size_t jobs = 0,
                                      const SweepOptions& options = {});

}  // namespace faascache

#endif  // FAASCACHE_SIM_SWEEP_RUNNER_H_
