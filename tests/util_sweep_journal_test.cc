// The one sweep driver (util/sweep_journal.h) on a trivial result kind:
// submission-order results for any worker count, strict-mode rethrow of
// the first failure in submission order, and a grid fingerprint that is
// computed only when the sweep journals. The tsan CI job runs this
// suite next to the thread-pool suite.
#include "util/sweep_journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace faascache {
namespace {

std::string
encodeInt(const std::string& key, const int& value)
{
    return escapeJournalToken(key) + " " + std::to_string(value);
}

bool
decodeInt(const std::string& payload, std::string* key, int* value)
{
    const std::size_t space = payload.find(' ');
    std::int64_t parsed = 0;
    if (space == std::string::npos ||
        !unescapeJournalToken(payload.substr(0, space), key) ||
        !parseI64Token(payload.substr(space + 1), &parsed))
        return false;
    *value = static_cast<int>(parsed);
    return true;
}

std::vector<std::string>
keysFor(std::size_t count)
{
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < count; ++i)
        keys.push_back("cell-" + std::to_string(i));
    return keys;
}

/** A sweep whose cell i returns i * i, or throws when `fail` says so. */
template <typename FailFn>
SweepReport<int>
squares(ThreadPool& pool, std::size_t count, const SweepOptions& options,
        FailFn fail, std::atomic<int>* fingerprints = nullptr)
{
    return runJournaledSweep<int>(
        pool, keysFor(count),
        [fingerprints]() -> std::uint64_t {
            if (fingerprints != nullptr)
                ++*fingerprints;
            return 42;
        },
        options, "squares",
        [&fail](std::size_t index, const CancellationToken&) {
            fail(index);
            return static_cast<int>(index * index);
        },
        encodeInt, decodeInt);
}

TEST(JournaledSweep, ResultsFollowSubmissionOrder)
{
    ThreadPool pool(4);
    const SweepReport<int> report =
        squares(pool, 200, {}, [](std::size_t) {});
    EXPECT_TRUE(report.completed);
    ASSERT_TRUE(report.allOk());
    const std::vector<int> results = report.results();
    ASSERT_EQ(results.size(), 200u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i * i));
        EXPECT_EQ(report.cells[i].key, "cell-" + std::to_string(i));
    }
}

TEST(JournaledSweep, EmptyGridCompletesWithNoCells)
{
    ThreadPool pool(4);
    const SweepReport<int> report = squares(pool, 0, {}, [](std::size_t) {});
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.allOk());
    EXPECT_TRUE(report.results().empty());
}

TEST(JournaledSweep, StrictRethrowsTheFirstFailureInSubmissionOrder)
{
    // Cell 1 is slow to fail and cell 2 fails at once, so under two
    // workers cell 2 usually fails first; strict mode must still
    // rethrow cell 1's exception.
    ThreadPool pool(2);
    SweepOptions options;
    options.strict = true;
    try {
        squares(pool, 4, options, [](std::size_t index) {
            if (index == 1) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::invalid_argument("cell 1");
            }
            if (index == 2)
                throw std::runtime_error("cell 2");
        });
        FAIL() << "expected cell 1's exception";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "cell 1");
    }
}

TEST(JournaledSweep, FingerprintIsComputedOnlyWhenJournaling)
{
    ThreadPool pool(2);
    std::atomic<int> fingerprints{0};
    squares(pool, 3, {}, [](std::size_t) {}, &fingerprints);
    EXPECT_EQ(fingerprints.load(), 0);

    const std::string path =
        std::string(::testing::TempDir()) + "faascache_driver.ckpt";
    std::remove(path.c_str());
    SweepOptions options;
    options.checkpoint_path = path;
    ASSERT_TRUE(
        squares(pool, 3, options, [](std::size_t) {}, &fingerprints)
            .allOk());
    EXPECT_EQ(fingerprints.load(), 1);

    options.resume = true;
    const SweepReport<int> resumed =
        squares(pool, 3, options, [](std::size_t) {}, &fingerprints);
    EXPECT_EQ(fingerprints.load(), 2);
    EXPECT_EQ(resumed.restored, 3u);
    EXPECT_EQ(resumed.results(), (std::vector<int>{0, 1, 4}));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace faascache
