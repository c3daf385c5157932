/**
 * @file
 * Failure-isolating execution harness for grids of independent cells.
 *
 * PR 2's sweep engine fans hundreds of (trace, policy, memory) cells
 * across a thread pool but lets one throwing cell abort the whole
 * sweep, and one wedged straggler block it forever. This harness is the
 * robustness layer under the one sweep driver, runJournaledSweep()
 * (util/sweep_journal.h), which every result kind runs through:
 *
 *  - **Failure isolation**: every cell resolves to a CellOutcome
 *    (ok | failed | timed_out | skipped) with captured error text;
 *    exceptions never cross cell boundaries.
 *  - **Watchdog deadlines**: a monitor thread tracks each running
 *    attempt's wall-clock age and cancels stragglers through a
 *    per-attempt CancellationToken (the cell's step loop cooperates
 *    via util/cancellation checkpoints).
 *  - **Bounded retry**: failed or timed-out attempts are re-run up to
 *    `max_retries` times. Every attempt replays the same cell, so a
 *    retry that completes produces the same result a first attempt
 *    would have.
 *  - **External cancellation**: a caller-owned token (typically bound
 *    to SIGINT/SIGTERM) stops the sweep — running cells are cancelled,
 *    pending ones are marked skipped, completed ones keep their
 *    results — so the driver can flush what finished and exit cleanly.
 *
 * Determinism: outcomes are indexed by submission order and each cell
 * still owns all its mutable state, so for cells that complete, the
 * results are byte-identical to a plain serial loop regardless of
 * worker count, deadlines, or retries.
 */
#ifndef FAASCACHE_UTIL_CELL_HARNESS_H_
#define FAASCACHE_UTIL_CELL_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace faascache {

/** Terminal state of one sweep cell. */
enum class CellStatus
{
    Ok,        ///< result is valid (fresh run or checkpoint restore)
    Failed,    ///< every attempt threw; error holds the first message
    TimedOut,  ///< every attempt exceeded the wall-clock deadline
    Skipped,   ///< never ran (sweep cancelled before/while it was due)
};

/** Lower-case wire/name of a cell status (ok, failed, ...). */
inline const char*
cellStatusName(CellStatus status)
{
    switch (status) {
        case CellStatus::Ok: return "ok";
        case CellStatus::Failed: return "failed";
        case CellStatus::TimedOut: return "timed_out";
        case CellStatus::Skipped: return "skipped";
    }
    return "unknown";
}

/** Per-cell outcome of a harnessed sweep. */
template <typename Result>
struct CellOutcome
{
    CellStatus status = CellStatus::Skipped;

    /** Valid only when status == Ok. */
    Result result{};

    /** The cell's stable key (checkpoint identity / display label). */
    std::string key;

    /** Captured error text for failed/timed-out/skipped cells. */
    std::string error;

    /** Simulation attempts actually made (0 for restored/skipped). */
    int attempts = 0;

    /** Result was restored from a checkpoint, not re-simulated. */
    bool restored = false;

    /** First failed attempt's exception, for strict-mode rethrow;
     *  `error` holds its message when status == Failed. */
    std::exception_ptr exception;

    bool ok() const { return status == CellStatus::Ok; }
};

/** Crash-safety knobs of a sweep, shared by every result kind. */
struct SweepOptions
{
    /** Per-attempt wall-clock deadline, seconds; 0 disables the
     *  watchdog. */
    double deadline_s = 0.0;

    /** Extra attempts after a failed or timed-out first attempt. */
    int max_retries = 0;

    /**
     * Rethrow the first (submission-order) cell failure after the sweep
     * settles instead of reporting it.
     */
    bool strict = false;

    /** Journal completed cells here; empty disables checkpointing. */
    std::string checkpoint_path;

    /**
     * Restore completed cells from checkpoint_path before running.
     * The file must exist and carry this grid's fingerprint.
     */
    bool resume = false;

    /**
     * Caller-owned cancellation (non-owning; may be null). Once
     * cancelled, running cells are cancelled and pending cells are
     * skipped; completed outcomes are kept.
     */
    const CancellationToken* cancel = nullptr;

    /** @throws std::invalid_argument on negative knobs. */
    void validate() const
    {
        if (deadline_s < 0.0)
            throw std::invalid_argument(
                "SweepOptions: deadline_s must be >= 0");
        if (max_retries < 0)
            throw std::invalid_argument(
                "SweepOptions: max_retries must be >= 0");
    }
};

namespace harness_detail {

/** One in-flight attempt the watchdog is timing. */
struct AttemptWatch
{
    std::shared_ptr<CancellationToken> token;
    std::chrono::steady_clock::time_point started;
    bool running = false;
};

struct WatchBoard
{
    std::mutex mutex;
    std::condition_variable wake;
    std::vector<AttemptWatch> cells;
    bool done = false;

    /** External cancellation observed: skip cells not yet started. */
    std::atomic<bool> shutdown{false};
};

}  // namespace harness_detail

/**
 * Run cells [0, outcomes.size()) on `pool`, filling `outcomes`.
 *
 * Cells whose outcome is pre-marked `restored` (checkpoint hits) are
 * not re-run. `run_cell(index, token)` produces the cell's Result and
 * must poll `token` at its step checkpoints; `on_ok(index,
 * outcome)` is invoked — serialized under an internal mutex, in
 * completion order — for every *fresh* Ok outcome, which is where the
 * checkpoint journal appends.
 *
 * Only `deadline_s`, `max_retries` and `cancel` of `options` are read
 * here; the journal knobs belong to runJournaledSweep().
 *
 * Blocks until every non-restored cell resolved. Returns true if the
 * sweep ran to completion, false if it was stopped by external
 * cancellation.
 */
template <typename Result, typename RunCell, typename OnOk>
bool
runHarnessedCells(ThreadPool& pool,
                  std::vector<CellOutcome<Result>>& outcomes,
                  RunCell run_cell, OnOk on_ok,
                  const SweepOptions& options)
{
    using harness_detail::WatchBoard;
    namespace chrono = std::chrono;
    options.validate();

    auto board = std::make_shared<WatchBoard>();
    board->cells.resize(outcomes.size());

    const auto deadline =
        chrono::duration_cast<chrono::steady_clock::duration>(
            chrono::duration<double>(options.deadline_s));
    const bool watch_deadlines = options.deadline_s > 0.0;
    const bool watch_external = options.cancel != nullptr;

    // The watchdog: cancels over-deadline attempts, and fans external
    // cancellation out to every running cell exactly once.
    std::thread watchdog;
    if (watch_deadlines || watch_external) {
        watchdog = std::thread([board, options, deadline, watch_deadlines,
                                watch_external]() {
            std::unique_lock<std::mutex> lock(board->mutex);
            while (!board->done) {
                board->wake.wait_for(lock, chrono::milliseconds(20));
                if (board->done)
                    break;
                // Re-fanned every tick (cancel() is idempotent) so an
                // attempt that started between ticks is still caught.
                if (watch_external && options.cancel->cancelled()) {
                    board->shutdown.store(true,
                                          std::memory_order_relaxed);
                    for (auto& watch : board->cells) {
                        if (watch.running)
                            watch.token->cancel(CancelReason::Signal);
                    }
                }
                if (!watch_deadlines)
                    continue;
                const auto now = chrono::steady_clock::now();
                for (auto& watch : board->cells) {
                    if (watch.running && now - watch.started >= deadline)
                        watch.token->cancel(CancelReason::Deadline);
                }
            }
        });
    }

    std::mutex on_ok_mutex;
    std::vector<std::future<void>> futures;
    futures.reserve(outcomes.size());

    for (std::size_t index = 0; index < outcomes.size(); ++index) {
        if (outcomes[index].restored)
            continue;
        futures.push_back(pool.submit([index, board, &outcomes, &run_cell,
                                       &on_ok, &on_ok_mutex, &options]() {
            CellOutcome<Result>& outcome = outcomes[index];
            // A Failed cell reports the message of the exception strict
            // mode rethrows: the first throw, not the last.
            std::string first_failure;
            const auto fail = [&outcome, &first_failure](const char* what) {
                if (!outcome.exception) {
                    outcome.exception = std::current_exception();
                    first_failure = what;
                }
                outcome.status = CellStatus::Failed;
                outcome.error = first_failure;
            };
            const int attempts_allowed = options.max_retries + 1;
            for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
                if (board->shutdown.load(std::memory_order_relaxed)) {
                    if (outcome.attempts == 0) {
                        outcome.status = CellStatus::Skipped;
                        outcome.error = "sweep cancelled before the cell "
                                        "could run";
                    }
                    return;
                }
                auto token = std::make_shared<CancellationToken>();
                {
                    std::lock_guard<std::mutex> lock(board->mutex);
                    auto& watch = board->cells[index];
                    watch.token = token;
                    watch.started = std::chrono::steady_clock::now();
                    watch.running = true;
                }
                ++outcome.attempts;
                try {
                    outcome.result = run_cell(index, *token);
                    outcome.status = CellStatus::Ok;
                    outcome.error.clear();
                } catch (const CancelledError& e) {
                    if (e.reason() == CancelReason::Signal) {
                        outcome.status = CellStatus::Skipped;
                        outcome.error =
                            "cancelled mid-run (sweep shutdown)";
                    } else {
                        outcome.status = CellStatus::TimedOut;
                        outcome.error = "attempt " +
                            std::to_string(attempt + 1) + " exceeded the " +
                            std::to_string(options.deadline_s) +
                            " s deadline";
                    }
                } catch (const std::exception& e) {
                    fail(e.what());
                } catch (...) {
                    fail("unknown exception");
                }
                {
                    std::lock_guard<std::mutex> lock(board->mutex);
                    board->cells[index].running = false;
                    board->cells[index].token.reset();
                }
                if (outcome.ok()) {
                    std::lock_guard<std::mutex> lock(on_ok_mutex);
                    on_ok(index, outcome);
                    return;
                }
                if (outcome.status == CellStatus::Skipped)
                    return;  // shutdown: no retry
            }
        }));
    }

    for (auto& future : futures)
        future.get();

    {
        std::lock_guard<std::mutex> lock(board->mutex);
        board->done = true;
    }
    board->wake.notify_all();
    if (watchdog.joinable())
        watchdog.join();

    return !(watch_external && options.cancel->cancelled());
}

}  // namespace faascache

#endif  // FAASCACHE_UTIL_CELL_HARNESS_H_
