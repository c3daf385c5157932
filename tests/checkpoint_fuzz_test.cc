/**
 * @file
 * Crash-consistency fuzzing of the checkpoint/resume path (ISSUE 8).
 *
 * A seeded battery of >= 1000 deterministic journal corruptions
 * (support/journal_mutator.h) drives runPlatformSweepReport() resume and
 * asserts the crash-safety contract end to end: every resume either
 * reproduces the uninterrupted sweep byte-identically (corrupted
 * records are detected and their cells re-run) or refuses with a named
 * error — never crashes, never silently diverges.
 *
 * Also pins the journal semantics the fuzzer relies on: duplicate cell
 * ids restore last-write-wins, and a record whose bytes end exactly at
 * the torn-tail boundary parses iff its newline survived.
 */
#include "support/journal_mutator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/experiment.h"
#include "platform/experiment_checkpoint.h"
#include "trace/function_spec.h"
#include "util/checkpoint_journal.h"

namespace faascache {
namespace {

/**
 * Unique temp path per test process; removed on destruction. ctest runs
 * each TEST as its own process, and several of them write the shared
 * baseline tag, so the pid keeps parallel runs off each other's files.
 */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "faascache_fuzz_" +
                tag + "_" + std::to_string(::getpid()) + ".ckpt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

    void write(const std::string& bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string read() const
    {
        std::ifstream in(path_, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

  private:
    std::string path_;
};

/** Small but non-trivial workload: warm hits, colds, and drops. */
const Trace&
fuzzTrace()
{
    static const Trace kTrace = [] {
        Trace t("fuzz-trace");
        t.addFunction(makeFunction(0, "hot", 400, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        t.addFunction(makeFunction(1, "big", 700, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        for (int i = 0; i < 120; ++i)
            t.addInvocation(i % 4 == 3 ? 1 : 0, i * 2 * kSecond);
        return t;
    }();
    return kTrace;
}

std::vector<PlatformCell>
fuzzGrid()
{
    std::vector<PlatformCell> cells;
    for (double memory_mb : {600.0, 1200.0}) {
        for (PolicyKind kind :
             {PolicyKind::Ttl, PolicyKind::GreedyDual}) {
            PlatformCell cell;
            cell.trace = &fuzzTrace();
            cell.kind = kind;
            cell.server.cores = 2;
            cell.server.memory_mb = memory_mb;
            cells.push_back(cell);
        }
    }
    return cells;
}

/** The uninterrupted run the fuzzer compares every resume against. */
struct Baseline
{
    std::vector<PlatformCell> cells;
    std::vector<std::string> keys;
    std::vector<std::string> payloads;  ///< canonical encoded results
    std::string journal;                ///< pristine journal bytes
};

const Baseline&
baseline()
{
    static const Baseline kBaseline = [] {
        Baseline b;
        b.cells = fuzzGrid();
        b.keys = platformCellKeys(b.cells);

        TempFile file("baseline");
        SweepOptions options;
        options.checkpoint_path = file.path();
        const SweepReport<PlatformResult> report =
            runPlatformSweepReport(b.cells, 1, options);
        EXPECT_TRUE(report.allOk());
        const std::vector<PlatformResult> results = report.results();
        for (std::size_t i = 0; i < results.size(); ++i)
            b.payloads.push_back(
                encodePlatformCheckpointPayload(b.keys[i], results[i]));
        b.journal = file.read();
        EXPECT_FALSE(b.journal.empty());
        return b;
    }();
    return kBaseline;
}

// --- The fuzz battery ----------------------------------------------------

TEST(CheckpointFuzz, EveryMutationResumesIdenticallyOrRefusesNamed)
{
    const Baseline& base = baseline();
    const TempFile file("battery");

    constexpr std::uint64_t kSeeds = 1200;
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;

    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        JournalMutation mutation;
        const std::string corrupted =
            mutateJournal(base.journal, seed, &mutation);
        file.write(corrupted);

        SweepOptions options;
        options.checkpoint_path = file.path();
        options.resume = true;

        try {
            const SweepReport<PlatformResult> report =
                runPlatformSweepReport(base.cells, 1, options);
            // Accepted: the sweep must end byte-identical to the
            // uninterrupted run — corrupted records re-ran their cells.
            ASSERT_TRUE(report.allOk())
                << "seed " << seed << ": " << mutation.format();
            const std::vector<PlatformResult> results = report.results();
            ASSERT_EQ(results.size(), base.payloads.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                ASSERT_EQ(encodePlatformCheckpointPayload(base.keys[i],
                                                          results[i]),
                          base.payloads[i])
                    << "seed " << seed << " diverged on cell "
                    << base.keys[i] << " after " << mutation.format();
            }
            ++accepted;
        } catch (const std::exception& e) {
            // Refused: the error must name what was wrong.
            ASSERT_FALSE(std::string(e.what()).empty())
                << "seed " << seed << " rejected without a message ("
                << mutation.format() << ")";
            ++rejected;
        }
    }

    EXPECT_EQ(accepted + rejected, static_cast<std::int64_t>(kSeeds));
    // The mutation classes must exercise both contract arms; a battery
    // that only ever refuses (or only ever accepts) tests nothing.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(CheckpointFuzz, MutatorIsDeterministic)
{
    const Baseline& base = baseline();
    for (std::uint64_t seed : {0ULL, 7ULL, 999ULL}) {
        JournalMutation first, second;
        EXPECT_EQ(mutateJournal(base.journal, seed, &first),
                  mutateJournal(base.journal, seed, &second));
        EXPECT_EQ(first.kind, second.kind);
        EXPECT_EQ(first.detail, second.detail);
    }
}

TEST(CheckpointFuzz, MutatorCoversEveryMutationClass)
{
    const Baseline& base = baseline();
    std::vector<std::string> seen;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        JournalMutation mutation;
        mutateJournal(base.journal, seed, &mutation);
        seen.push_back(mutation.kind);
    }
    for (const char* kind :
         {"bit-flip", "truncate", "duplicate-line", "swap-lines",
          "delete-line", "corrupt-header", "append-garbage"}) {
        EXPECT_NE(std::find(seen.begin(), seen.end(), kind), seen.end())
            << "64 consecutive seeds never produced " << kind;
    }
}

// --- Journal semantics the fuzzer relies on (satellite 2) ----------------

TEST(JournalSemantics, DuplicateCellIdRestoresLastWrite)
{
    const Baseline& base = baseline();
    const TempFile file("dup");
    file.write(base.journal);

    // Append a second record for cell 0 carrying doctored counters:
    // last write must win on restore, deterministically.
    const CheckpointJournalLoad load =
        loadCheckpointJournal(file.path());
    ASSERT_FALSE(load.torn_tail);

    std::string key;
    PlatformResult doctored;
    ASSERT_TRUE(decodePlatformCheckpointPayload(
        load.records.front().payload, &key, &doctored));
    ASSERT_EQ(key, base.keys.front());
    doctored.warm_starts += 7;
    {
        CheckpointJournalWriter writer =
            CheckpointJournalWriter::continueAt(file.path(),
                                                load.valid_bytes);
        writer.append(
            encodePlatformCheckpointPayload(key, doctored));
    }

    SweepOptions options;
    options.checkpoint_path = file.path();
    options.resume = true;
    const SweepReport<PlatformResult> report =
        runPlatformSweepReport(base.cells, 1, options);
    ASSERT_TRUE(report.allOk());
    EXPECT_EQ(report.restored, base.cells.size());
    EXPECT_TRUE(report.cells.front().restored);
    EXPECT_EQ(encodePlatformCheckpointPayload(
                  base.keys.front(), report.results().front()),
              encodePlatformCheckpointPayload(key, doctored))
        << "duplicate cell id must restore the later record";
}

TEST(JournalSemantics, RecordEndingExactlyAtTornTailBoundary)
{
    const Baseline& base = baseline();
    const TempFile file("boundary");
    file.write(base.journal);
    const CheckpointJournalLoad whole =
        loadCheckpointJournal(file.path());
    ASSERT_GE(whole.records.size(), 2u);
    const std::size_t last_end = whole.records.back().end_offset;
    ASSERT_EQ(last_end, base.journal.size());

    // Cut exactly at the record's end (newline intact): nothing torn.
    {
        file.write(base.journal.substr(0, last_end));
        const CheckpointJournalLoad load =
            loadCheckpointJournal(file.path());
        EXPECT_FALSE(load.torn_tail);
        EXPECT_EQ(load.records.size(), whole.records.size());
        EXPECT_EQ(load.valid_bytes, last_end);
    }

    // Cut one byte earlier (payload complete, newline gone): the last
    // record is torn and the valid prefix ends at the previous record.
    {
        file.write(base.journal.substr(0, last_end - 1));
        const CheckpointJournalLoad load =
            loadCheckpointJournal(file.path());
        EXPECT_TRUE(load.torn_tail);
        EXPECT_EQ(load.records.size(), whole.records.size() - 1);
        EXPECT_EQ(load.valid_bytes,
                  whole.records[whole.records.size() - 2].end_offset);

        // Resume over the torn journal re-runs the lost cell and ends
        // byte-identical to the uninterrupted sweep.
        SweepOptions options;
        options.checkpoint_path = file.path();
        options.resume = true;
        const SweepReport<PlatformResult> report =
            runPlatformSweepReport(base.cells, 1, options);
        ASSERT_TRUE(report.allOk());
        EXPECT_TRUE(report.torn_tail);
        EXPECT_EQ(report.restored, base.cells.size() - 1);
        const std::vector<PlatformResult> results = report.results();
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(encodePlatformCheckpointPayload(base.keys[i],
                                                      results[i]),
                      base.payloads[i]);
    }
}

}  // namespace
}  // namespace faascache
