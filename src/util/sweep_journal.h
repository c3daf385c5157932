/**
 * @file
 * The one sweep driver: every result kind (SimResult, PlatformResult,
 * ClusterResult, ElasticResult) runs its grid through
 * runJournaledSweep().
 *
 * A sweep flavour contributes only what actually differs between
 * result kinds — the cell type and how a cell runs, the key
 * derivation, the grid fingerprint, and the journal payload codec.
 * The driver owns the rest of the pipeline: the resume-without-path
 * check, fingerprinting the grid only when journaling, opening or
 * restoring the checkpoint journal (util/checkpoint_journal.h), the
 * failure-isolating harness (util/cell_harness.h), and the strict-mode
 * rethrow in submission order.
 */
#ifndef FAASCACHE_UTIL_SWEEP_JOURNAL_H_
#define FAASCACHE_UTIL_SWEEP_JOURNAL_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/cell_harness.h"
#include "util/checkpoint_journal.h"
#include "util/thread_pool.h"

namespace faascache {

/** Everything a harnessed sweep produced. */
template <typename Result>
struct SweepReport
{
    /** Per-cell outcomes, indexed like the input grid. */
    std::vector<CellOutcome<Result>> cells;

    /** False when external cancellation stopped the sweep early. */
    bool completed = true;

    /** Cells restored from the checkpoint instead of re-run. */
    std::size_t restored = 0;

    /** The resumed checkpoint had a torn tail (truncated, re-run). */
    bool torn_tail = false;

    std::size_t countWithStatus(CellStatus status) const
    {
        std::size_t count = 0;
        for (const CellOutcome<Result>& cell : cells)
            count += cell.status == status ? 1 : 0;
        return count;
    }

    bool allOk() const
    {
        return countWithStatus(CellStatus::Ok) == cells.size();
    }

    /** results()[i] is cells[i].result. @pre allOk(). */
    std::vector<Result> results() const
    {
        std::vector<Result> out;
        out.reserve(cells.size());
        for (const CellOutcome<Result>& cell : cells)
            out.push_back(cell.result);
        return out;
    }
};

/**
 * Make derived cell keys unique: later duplicates get "#2", "#3", ...
 * in grid order, so every cell has a distinct checkpoint identity.
 */
inline std::vector<std::string>
dedupeSweepKeys(std::vector<std::string> keys)
{
    std::unordered_set<std::string> used;
    for (std::string& key : keys) {
        if (used.insert(key).second)
            continue;
        for (int n = 2;; ++n) {
            std::string candidate = key + "#" + std::to_string(n);
            if (used.insert(candidate).second) {
                key = std::move(candidate);
                break;
            }
        }
    }
    return keys;
}

/**
 * Open the checkpoint journal at options.checkpoint_path, restoring
 * journaled cells into `report` first when options.resume is set.
 *
 * @param who         Caller name for error/warning messages.
 * @param fingerprint This grid's fingerprint; a resumed journal must
 *                    carry the same one.
 * @param report      Outcome slots keyed like the grid; restored cells
 *                    are marked Ok with `restored` set, and
 *                    `restored`/`torn_tail` are updated.
 * @param decode      Typed payload decoder:
 *                    bool(const std::string&, std::string*, Result*).
 *                    A checksum-valid record that fails to decode
 *                    ends the valid prefix exactly like a torn tail.
 *
 * @pre options.checkpoint_path is not empty.
 * @throws std::runtime_error when the journal cannot be read or
 *         belongs to a different grid.
 */
template <typename Result, typename DecodeFn>
std::unique_ptr<CheckpointJournalWriter>
openSweepJournal(const SweepOptions& options, const char* who,
                 std::uint64_t fingerprint, SweepReport<Result>& report,
                 DecodeFn decode)
{
    const std::string& path = options.checkpoint_path;
    if (!options.resume)
        return std::make_unique<CheckpointJournalWriter>(
            CheckpointJournalWriter::beginFresh(path, fingerprint));

    CheckpointJournalLoad load = loadCheckpointJournal(path);
    if (load.fingerprint != fingerprint) {
        char want[24], got[24];
        std::snprintf(want, sizeof want, "%016" PRIx64, fingerprint);
        std::snprintf(got, sizeof got, "%016" PRIx64, load.fingerprint);
        throw std::runtime_error(
            std::string(who) + ": checkpoint " + path +
            " belongs to a different sweep grid (fingerprint " + got +
            ", this grid is " + want + "); refusing to resume");
    }

    std::unordered_map<std::string, Result> restored;
    std::size_t prefix = load.header_bytes;
    bool torn = load.torn_tail;
    for (const CheckpointJournalRecord& record : load.records) {
        std::string key;
        Result result;
        if (!decode(record.payload, &key, &result)) {
            torn = true;
            break;
        }
        restored[key] = std::move(result);  // last record wins
        prefix = record.end_offset;
    }
    const std::size_t valid_bytes =
        prefix < load.valid_bytes ? prefix : load.valid_bytes;
    if (torn) {
        report.torn_tail = true;
        std::fprintf(stderr,
                     "%s: checkpoint %s has a torn tail (record cut "
                     "mid-write); truncating to %zu valid bytes and "
                     "re-running the affected cell\n",
                     who, path.c_str(), valid_bytes);
    }
    for (CellOutcome<Result>& outcome : report.cells) {
        auto it = restored.find(outcome.key);
        if (it == restored.end())
            continue;
        outcome.status = CellStatus::Ok;
        outcome.result = it->second;
        outcome.restored = true;
        ++report.restored;
    }
    return std::make_unique<CheckpointJournalWriter>(
        CheckpointJournalWriter::continueAt(path, valid_bytes));
}

/**
 * Run a sweep of keys.size() cells on `pool` under the crash-safety
 * harness, journaling every fresh Ok cell when options.checkpoint_path
 * is set and restoring journaled cells first when options.resume is.
 *
 * @param keys        Effective (unique) per-cell keys, grid order.
 * @param fingerprint Thunk returning the grid fingerprint; called only
 *                    when journaling.
 * @param who         Caller name for error/warning messages.
 * @param run_cell    Result(std::size_t index, const CancellationToken&):
 *                    runs cell `index`, polling the token at its step
 *                    checkpoints.
 * @param encode      std::string(const std::string& key, const Result&):
 *                    the journal payload codec.
 * @param decode      Its inverse (see openSweepJournal()).
 *
 * @throws std::invalid_argument when options.resume is set without a
 *         checkpoint path, or on negative harness knobs.
 * @throws std::runtime_error when the journal cannot be read or
 *         belongs to a different grid.
 * @throws the first (submission-order) cell failure when
 *         options.strict is set; a failed cell rethrows its own
 *         exception.
 */
template <typename Result, typename FingerprintFn, typename RunCell,
          typename EncodeFn, typename DecodeFn>
SweepReport<Result>
runJournaledSweep(ThreadPool& pool, const std::vector<std::string>& keys,
                  FingerprintFn fingerprint, const SweepOptions& options,
                  const char* who, RunCell run_cell, EncodeFn encode,
                  DecodeFn decode)
{
    const bool journaling = !options.checkpoint_path.empty();
    if (options.resume && !journaling)
        throw std::invalid_argument(
            std::string(who) +
            ": resume requested without a checkpoint path");

    SweepReport<Result> report;
    report.cells.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        report.cells[i].key = keys[i];

    std::unique_ptr<CheckpointJournalWriter> writer;
    if (journaling)
        writer =
            openSweepJournal(options, who, fingerprint(), report, decode);

    report.completed = runHarnessedCells(
        pool, report.cells, run_cell,
        [&writer, &encode](std::size_t /*index*/,
                           const CellOutcome<Result>& outcome) {
            if (writer)
                writer->append(encode(outcome.key, outcome.result));
        },
        options);

    if (options.strict) {
        for (const CellOutcome<Result>& cell : report.cells) {
            if (cell.ok())
                continue;
            if (cell.exception)
                std::rethrow_exception(cell.exception);
            throw std::runtime_error(std::string(who) + ": cell " +
                                     cell.key + " " +
                                     cellStatusName(cell.status) + ": " +
                                     cell.error);
        }
    }
    return report;
}

}  // namespace faascache

#endif  // FAASCACHE_UTIL_SWEEP_JOURNAL_H_
