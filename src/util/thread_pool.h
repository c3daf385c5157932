/**
 * @file
 * A fixed-size worker thread pool with futures-based task submission.
 *
 * The pool exists so the sweep driver (util/sweep_journal.h) can fan
 * independent simulation cells across cores.
 * Tasks are arbitrary callables; submit() returns a std::future for the
 * callable's result. Worker threads are started once in the constructor
 * and joined on shutdown; the pool never grows or shrinks.
 *
 * Shutdown is drain-then-join: pending tasks complete before workers
 * exit. Because a deadlocked or wedged task would otherwise hang the
 * destructor forever, shutdown accepts an optional drain timeout
 * (`setDrainTimeout` arms the destructor with one): when the timeout
 * expires, queued-but-unstarted tasks are abandoned (their futures get
 * broken_promise), the stuck workers are detached, and a diagnostic
 * ShutdownReport is surfaced instead of a hang. Worker threads only
 * reference the pool's shared internal state (kept alive by
 * shared_ptr), so detaching is memory-safe even if a wedged task wakes
 * up after the pool object is gone.
 *
 * Determinism note: the pool makes no ordering promises between tasks —
 * callers that need reproducible output must make every task
 * self-contained (own its RNG stream, write only its own result slot)
 * and merge results in submission order, as the sweep driver does.
 */
#ifndef FAASCACHE_UTIL_THREAD_POOL_H_
#define FAASCACHE_UTIL_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace faascache {

/** Fixed-size worker pool. Thread-safe; tasks may submit further tasks. */
class ThreadPool
{
  public:
    /** What shutdown() observed while draining the pool. */
    struct ShutdownReport
    {
        /** Every worker drained its work and was joined. */
        bool drained = true;

        /** Workers still busy when the drain timeout expired; they were
         *  detached (cooperatively wedged tasks keep running but can no
         *  longer block the caller). */
        std::size_t unjoined_workers = 0;

        /** Queued tasks that never started; their futures report
         *  std::future_error(broken_promise). */
        std::size_t abandoned_tasks = 0;
    };

    /**
     * @param threads Worker count; 0 selects defaultConcurrency().
     */
    explicit ThreadPool(std::size_t threads = 0);

    /**
     * Drains pending tasks and joins workers. If a drain timeout was
     * armed via setDrainTimeout() and expires, detaches the stuck
     * workers and reports the diagnostics to stderr instead of
     * blocking forever.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Arm the destructor with a bounded drain: instead of joining
     * unconditionally it calls shutdown(timeout) and logs any
     * unjoined-worker diagnostics. Unset (the default) preserves the
     * original block-until-drained behaviour.
     */
    void setDrainTimeout(std::chrono::milliseconds timeout)
    {
        drain_timeout_ = timeout;
    }

    /**
     * Stop accepting work, finish the queue, and join the workers.
     * With a timeout, waits at most that long for busy workers to
     * finish; on expiry the remaining queue is abandoned and the stuck
     * workers are detached (see ShutdownReport). Idempotent — repeated
     * calls return the first call's report.
     */
    ShutdownReport shutdown(
        std::optional<std::chrono::milliseconds> timeout = std::nullopt);

    /**
     * Enqueue `fn(args...)` and return a future for its result. The
     * callable runs on some worker thread; exceptions propagate through
     * the future.
     * @throws std::runtime_error after shutdown() has begun.
     */
    template <typename Fn, typename... Args>
    auto submit(Fn&& fn, Args&&... args)
        -> std::future<std::invoke_result_t<Fn, Args...>>
    {
        using Result = std::invoke_result_t<Fn, Args...>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            [fn = std::forward<Fn>(fn),
             ... args = std::forward<Args>(args)]() mutable {
                return std::invoke(std::move(fn), std::move(args)...);
            });
        std::future<Result> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * std::thread::hardware_concurrency() with a floor of 1 (the
     * standard allows it to return 0 when unknown).
     */
    static std::size_t defaultConcurrency();

  private:
    /**
     * Everything the workers touch, held by shared_ptr so a detached
     * (wedged) worker never dereferences a destroyed pool.
     */
    struct State
    {
        std::mutex mutex;
        std::condition_variable work_cv;     ///< tasks available/shutdown
        std::condition_variable drained_cv;  ///< a worker exited
        std::deque<std::function<void()>> tasks;
        bool shutting_down = false;
        std::size_t alive_workers = 0;
    };

    void enqueue(std::function<void()> task);

    static void workerLoop(const std::shared_ptr<State>& state);

    std::shared_ptr<State> state_;
    std::vector<std::thread> workers_;
    std::optional<std::chrono::milliseconds> drain_timeout_;
    std::optional<ShutdownReport> shutdown_report_;
};

}  // namespace faascache

#endif  // FAASCACHE_UTIL_THREAD_POOL_H_
