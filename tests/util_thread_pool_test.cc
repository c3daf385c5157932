// The fixed-size worker pool under the sweep engine: result delivery
// through futures, exception propagation, and heavy contention. The
// tsan CI job runs this suite to catch races.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace faascache {
namespace {

TEST(ThreadPool, RunsSubmittedTask)
{
    ThreadPool pool(2);
    std::future<int> result = pool.submit([]() { return 41 + 1; });
    EXPECT_EQ(result.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultConcurrency());
    EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ZeroRequestsDefaultConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::defaultConcurrency());
}

TEST(ThreadPool, ForwardsArguments)
{
    ThreadPool pool(1);
    std::future<std::string> result = pool.submit(
        [](const std::string& a, int b) { return a + std::to_string(b); },
        std::string("n="), 7);
    EXPECT_EQ(result.get(), "n=7");
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    std::future<void> result = pool.submit(
        []() { throw std::runtime_error("cell failed"); });
    EXPECT_THROW(result.get(), std::runtime_error);
}

TEST(ThreadPool, CompletesAllTasksUnderContention)
{
    ThreadPool pool(8);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 500; ++i)
        futures.push_back(pool.submit([&counter]() { ++counter; }));
    for (auto& future : futures)
        future.get();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, DrainsPendingTasksOnDestruction)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter]() { ++counter; });
        // No explicit waits: the destructor must run every queued task.
    }
    EXPECT_EQ(counter.load(), 100);
}

// --- Bounded-drain shutdown (the sweep engine's wedged-task escape) ------

/** A task that blocks until released, shared so a detached worker can
 *  outlive the test body safely. */
struct Wedge
{
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    bool started = false;

    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [this]() { return released; });
    }

    void waitUntilStarted()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this]() { return started; });
    }

    void release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
        cv.notify_all();
    }
};

TEST(ThreadPoolShutdown, CleanShutdownReportsDrained)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter]() { ++counter; });
    const ThreadPool::ShutdownReport report = pool.shutdown();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.unjoined_workers, 0u);
    EXPECT_EQ(report.abandoned_tasks, 0u);
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolShutdown, SubmitAfterShutdownThrows)
{
    ThreadPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([]() {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, WedgedWorkerIsDetachedAndReported)
{
    auto wedge = std::make_shared<Wedge>();
    ThreadPool pool(1);
    pool.submit([wedge]() { wedge->wait(); });
    wedge->waitUntilStarted();

    const ThreadPool::ShutdownReport report =
        pool.shutdown(std::chrono::milliseconds(50));
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(report.unjoined_workers, 1u);
    // The detached worker keeps running; releasing it lets it finish
    // against the shared pool state (kept alive past the pool object).
    wedge->release();
}

TEST(ThreadPoolShutdown, AbandonedTasksGetBrokenPromises)
{
    auto wedge = std::make_shared<Wedge>();
    ThreadPool pool(1);
    pool.submit([wedge]() { wedge->wait(); });
    wedge->waitUntilStarted();
    // Queued behind the wedged task; it can never start.
    std::future<int> abandoned = pool.submit([]() { return 1; });

    const ThreadPool::ShutdownReport report =
        pool.shutdown(std::chrono::milliseconds(50));
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(report.abandoned_tasks, 1u);
    try {
        abandoned.get();
        FAIL() << "expected broken_promise";
    } catch (const std::future_error& e) {
        EXPECT_EQ(e.code(), std::future_errc::broken_promise);
    }
    wedge->release();
}

TEST(ThreadPoolShutdown, RepeatedShutdownReturnsFirstReport)
{
    auto wedge = std::make_shared<Wedge>();
    ThreadPool pool(1);
    pool.submit([wedge]() { wedge->wait(); });
    wedge->waitUntilStarted();

    const ThreadPool::ShutdownReport first =
        pool.shutdown(std::chrono::milliseconds(50));
    EXPECT_FALSE(first.drained);
    wedge->release();
    // Idempotent: the second call reports the first call's outcome, it
    // does not re-drain.
    const ThreadPool::ShutdownReport second = pool.shutdown();
    EXPECT_EQ(second.drained, first.drained);
    EXPECT_EQ(second.unjoined_workers, first.unjoined_workers);
    EXPECT_EQ(second.abandoned_tasks, first.abandoned_tasks);
}

TEST(ThreadPoolShutdown, DrainTimeoutArmsTheDestructor)
{
    auto wedge = std::make_shared<Wedge>();
    {
        ThreadPool pool(1);
        pool.setDrainTimeout(std::chrono::milliseconds(50));
        pool.submit([wedge]() { wedge->wait(); });
        wedge->waitUntilStarted();
        // The destructor must come back (logging the diagnostics)
        // instead of blocking on the wedged worker forever.
    }
    wedge->release();
}

}  // namespace
}  // namespace faascache
