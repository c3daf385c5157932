// The crash-safety layer of the sweep engine (DESIGN.md §4b): failure
// isolation into per-cell outcomes, watchdog deadlines with bounded
// retry, strict-mode rethrow, grid fingerprints, and checkpoint/resume
// that reproduces an uninterrupted sweep bit-for-bit.
#include "sim/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_factory.h"
#include "util/checkpoint_journal.h"
#include "trace/function_spec.h"

namespace faascache {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "faascache_sweep_" +
                tag + ".ckpt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Two functions contending for memory: warm hits, colds, and drops. */
const Trace&
testTrace()
{
    static const Trace kTrace = [] {
        Trace t("report-test");
        t.addFunction(makeFunction(0, "hot", 400, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        t.addFunction(makeFunction(1, "big", 700, fromSeconds(0.5),
                                   fromSeconds(2.0)));
        for (int i = 0; i < 400; ++i)
            t.addInvocation(i % 4 == 3 ? 1 : 0, i * 2 * kSecond);
        return t;
    }();
    return kTrace;
}

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    for (MemMb memory_mb : {500.0, 900.0, 4096.0}) {
        for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Ttl})
            cells.push_back(makeCell(testTrace(), kind, memory_mb));
    }
    return cells;
}

/** A policy poisoned at construction time (worker-side failure). */
SweepCell
poisonedCell(const std::string& key)
{
    SweepCell cell;
    cell.trace = &testTrace();
    cell.make_policy = []() -> std::unique_ptr<KeepAlivePolicy> {
        throw std::runtime_error("poisoned policy factory");
    };
    cell.key = key;  // explicit: the default key would build the policy
    return cell;
}

/**
 * Burns real wall-clock time on every arrival so the watchdog deadline
 * fires; evicts nothing, which the harness never sees (the deadline
 * cancels through the simulator's per-step checkpoint first).
 */
class SleepyPolicy : public KeepAlivePolicy
{
  public:
    std::string name() const override { return "Sleepy"; }

    void onInvocationArrival(const FunctionSpec& function,
                             TimeUs now) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        KeepAlivePolicy::onInvocationArrival(function, now);
    }

    std::vector<ContainerId> selectVictims(ContainerPool&, MemMb,
                                           TimeUs) override
    {
        return {};
    }
};

TEST(SweepReport, AllOkGridMatchesStrictRun)
{
    const std::vector<SweepCell> cells = smallGrid();
    const SweepReport<SimResult> report = runSweepReport(cells, 2);
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.restored, 0u);
    const std::vector<SimResult> reference = runSweep(cells, 2);
    ASSERT_EQ(report.cells.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(report.cells[i].attempts, 1);
        EXPECT_FALSE(report.cells[i].restored);
        EXPECT_TRUE(report.cells[i].result == reference[i]);
    }
}

TEST(SweepReport, OnePoisonedCellDoesNotAbortTheSweep)
{
    std::vector<SweepCell> cells = smallGrid();
    cells.insert(cells.begin() + 2, poisonedCell("poisoned"));
    const SweepReport<SimResult> report = runSweepReport(cells, 4);

    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.countWithStatus(CellStatus::Failed), 1u);
    EXPECT_EQ(report.countWithStatus(CellStatus::Ok), cells.size() - 1);

    const CellOutcome<SimResult>& bad = report.cells[2];
    EXPECT_EQ(bad.status, CellStatus::Failed);
    EXPECT_EQ(bad.key, "poisoned");
    EXPECT_NE(bad.error.find("poisoned policy factory"),
              std::string::npos);
    EXPECT_EQ(bad.attempts, 1);
    EXPECT_TRUE(static_cast<bool>(bad.exception));

    // The healthy cells are untouched by their neighbour's failure.
    std::vector<SweepCell> healthy = smallGrid();
    const std::vector<SimResult> reference = runSweep(healthy, 2);
    EXPECT_TRUE(report.cells[0].result == reference[0]);
    EXPECT_TRUE(report.cells[3].result == reference[2]);
}

TEST(SweepReport, FailedCellIsRetriedBoundedly)
{
    std::vector<SweepCell> cells = {poisonedCell("poisoned")};
    SweepOptions options;
    options.max_retries = 2;
    const SweepReport<SimResult> report = runSweepReport(cells, 1, options);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].status, CellStatus::Failed);
    EXPECT_EQ(report.cells[0].attempts, 3);  // 1 try + 2 retries
}

TEST(SweepReport, FailedCellReportsTheErrorStrictModeRethrows)
{
    // Attempts throw "first", then "second": the report's error and the
    // strict rethrow must both name the first attempt.
    auto attempts = std::make_shared<std::atomic<int>>(0);
    SweepCell cell;
    cell.trace = &testTrace();
    cell.make_policy = [attempts]() -> std::unique_ptr<KeepAlivePolicy> {
        throw std::runtime_error(attempts->fetch_add(1) == 0 ? "first"
                                                             : "second");
    };
    cell.key = "flaky";  // explicit: the default key would build the policy
    SweepOptions options;
    options.max_retries = 1;
    const SweepReport<SimResult> report = runSweepReport({cell}, 1, options);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].status, CellStatus::Failed);
    EXPECT_EQ(report.cells[0].attempts, 2);
    EXPECT_EQ(report.cells[0].error, "first");

    attempts->store(0);
    options.strict = true;
    try {
        runSweepReport({cell}, 1, options);
        FAIL() << "expected the first attempt's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(SweepReport, StrictModeRethrowsTheOriginalException)
{
    std::vector<SweepCell> cells = smallGrid();
    cells.push_back(poisonedCell("poisoned"));
    SweepOptions options;
    options.strict = true;
    try {
        runSweepReport(cells, 2, options);
        FAIL() << "expected the poisoned cell's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "poisoned policy factory");
    }
}

TEST(SweepReport, DeadlineTimesOutWedgedCells)
{
    // ~400 arrivals x 2 ms sleep = ~0.8 s of wall clock per attempt,
    // against a 0.1 s deadline: the watchdog must cancel the attempt
    // through the simulator's cooperative checkpoint.
    SweepCell sleepy;
    sleepy.trace = &testTrace();
    sleepy.make_policy = []() { return std::make_unique<SleepyPolicy>(); };
    sleepy.sim.memory_mb = 4096;
    sleepy.key = "sleepy";
    std::vector<SweepCell> cells = smallGrid();
    cells.push_back(sleepy);

    SweepOptions options;
    options.deadline_s = 0.1;
    options.max_retries = 1;
    const SweepReport<SimResult> report = runSweepReport(cells, 2, options);

    EXPECT_TRUE(report.completed);
    const CellOutcome<SimResult>& timed_out = report.cells.back();
    EXPECT_EQ(timed_out.status, CellStatus::TimedOut);
    EXPECT_EQ(timed_out.attempts, 2);  // deadline applies per attempt
    EXPECT_NE(timed_out.error.find("deadline"), std::string::npos);
    // The fast cells finish well inside the deadline, unharmed.
    EXPECT_EQ(report.countWithStatus(CellStatus::Ok), cells.size() - 1);
}

TEST(SweepReport, PreCancelledSweepStopsWithoutRunningEverything)
{
    CancellationToken cancel;
    cancel.cancel(CancelReason::Signal);
    SweepOptions options;
    options.cancel = &cancel;
    const SweepReport<SimResult> report =
        runSweepReport(smallGrid(), 1, options);
    EXPECT_FALSE(report.completed);
    // Every cell is either finished or cleanly skipped — never lost.
    for (const CellOutcome<SimResult>& cell : report.cells) {
        EXPECT_TRUE(cell.status == CellStatus::Ok ||
                    cell.status == CellStatus::Skipped)
            << cellStatusName(cell.status);
    }
}

TEST(SweepReport, ValidationNamesTheOffendingCellIndex)
{
    std::vector<SweepCell> cells = smallGrid();
    cells[3].trace = nullptr;
    try {
        runSweepReport(cells, 1);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("cell index 3"),
                  std::string::npos);
    }
    cells = smallGrid();
    cells[1].make_policy = nullptr;
    try {
        runSweepReport(cells, 1);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("cell index 1"),
                  std::string::npos);
    }
}

TEST(SweepKeys, DerivedKeysAreUniqueAndExplicitKeysWin)
{
    std::vector<SweepCell> cells = {
        makeCell(testTrace(), PolicyKind::GreedyDual, 1024),
        makeCell(testTrace(), PolicyKind::GreedyDual, 1024),
        makeCell(testTrace(), PolicyKind::Ttl, 1024),
    };
    cells[2].key = "my-explicit-key";
    const std::vector<std::string> keys = sweepCellKeys(cells);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "report-test/GD/1024MB");
    EXPECT_EQ(keys[1], "report-test/GD/1024MB#2");
    EXPECT_EQ(keys[2], "my-explicit-key");
}

TEST(SweepFingerprint, StableForSameGridSensitiveToChanges)
{
    const std::uint64_t base = sweepGridFingerprint(smallGrid());
    EXPECT_EQ(sweepGridFingerprint(smallGrid()), base);

    std::vector<SweepCell> resized = smallGrid();
    resized[0].sim.memory_mb += 1.0;
    EXPECT_NE(sweepGridFingerprint(resized), base);

    std::vector<SweepCell> reseeded = smallGrid();
    reseeded[0].rng_seed = 99;
    EXPECT_NE(sweepGridFingerprint(reseeded), base);

    std::vector<SweepCell> shorter = smallGrid();
    shorter.pop_back();
    EXPECT_NE(sweepGridFingerprint(shorter), base);
}

TEST(SweepResume, InterruptedSweepResumesBitIdentical)
{
    const std::vector<SweepCell> cells = smallGrid();
    TempFile ckpt("resume");

    // Uninterrupted reference run, journaled. jobs=1 makes completion
    // order equal grid order, so "the first two records" below is
    // deterministically cells 0 and 1.
    SweepOptions journal;
    journal.checkpoint_path = ckpt.path();
    const SweepReport<SimResult> reference = runSweepReport(cells, 1, journal);
    ASSERT_TRUE(reference.allOk());

    // Simulate a SIGKILL after two records: keep the header + first two
    // lines and tear the third mid-write.
    std::string bytes;
    {
        std::ifstream in(ckpt.path(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::size_t cut = 0;
    for (int newlines = 0; newlines < 3; ++newlines)
        cut = bytes.find('\n', cut) + 1;
    {
        std::ofstream out(ckpt.path(),
                          std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, cut) << "cell 0123456789abcdef torn";
    }

    SweepOptions resume = journal;
    resume.resume = true;
    const SweepReport<SimResult> resumed = runSweepReport(cells, 2, resume);
    EXPECT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.torn_tail);
    EXPECT_EQ(resumed.restored, 2u);
    ASSERT_EQ(resumed.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
        // Bitwise SimResult equality: restored or re-run, every cell
        // matches the uninterrupted sweep exactly.
        EXPECT_TRUE(resumed.cells[i].result ==
                    reference.cells[i].result)
            << "cell " << i;
        EXPECT_EQ(resumed.cells[i].restored, i < 2);
    }

    // The repaired journal now covers the full grid and resumes to a
    // fully-restored, zero-work sweep.
    SweepOptions resume_again = resume;
    const SweepReport<SimResult> warm = runSweepReport(cells, 2, resume_again);
    EXPECT_FALSE(warm.torn_tail);
    EXPECT_EQ(warm.restored, cells.size());
    for (std::size_t i = 0; i < warm.cells.size(); ++i) {
        EXPECT_EQ(warm.cells[i].attempts, 0);
        EXPECT_TRUE(warm.cells[i].result == reference.cells[i].result);
    }
}

TEST(SweepResume, RefusesAForeignGridFingerprint)
{
    TempFile ckpt("foreign");
    const std::vector<SweepCell> cells = smallGrid();
    SweepOptions journal;
    journal.checkpoint_path = ckpt.path();
    ASSERT_TRUE(runSweepReport(cells, 2, journal).allOk());

    std::vector<SweepCell> other = smallGrid();
    other[0].sim.memory_mb = 123;  // different grid, same journal
    SweepOptions resume = journal;
    resume.resume = true;
    try {
        runSweepReport(other, 2, resume);
        FAIL() << "expected a fingerprint-mismatch refusal";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                  std::string::npos);
    }
}

TEST(SweepResume, ResumeWithoutPathIsRejected)
{
    SweepOptions options;
    options.resume = true;
    EXPECT_THROW(runSweepReport(smallGrid(), 1, options),
                 std::invalid_argument);
}

TEST(SweepReport, JournalOrderIsCompletionOrderButRestoreIsByKey)
{
    // Journal records land in completion order (non-deterministic under
    // jobs > 1); restore keys them back to grid positions regardless.
    const std::vector<SweepCell> cells = smallGrid();
    TempFile ckpt("order");
    SweepOptions journal;
    journal.checkpoint_path = ckpt.path();
    const SweepReport<SimResult> reference = runSweepReport(cells, 4, journal);
    ASSERT_TRUE(reference.allOk());

    const CheckpointJournalLoad load = loadCheckpointJournal(ckpt.path());
    EXPECT_EQ(load.records.size(), cells.size());
    EXPECT_EQ(load.fingerprint, sweepGridFingerprint(cells));

    SweepOptions resume = journal;
    resume.resume = true;
    const SweepReport<SimResult> restored = runSweepReport(cells, 1, resume);
    EXPECT_EQ(restored.restored, cells.size());
    for (std::size_t i = 0; i < restored.cells.size(); ++i)
        EXPECT_TRUE(restored.cells[i].result ==
                    reference.cells[i].result);
}

}  // namespace
}  // namespace faascache
