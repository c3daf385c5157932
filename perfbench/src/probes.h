/**
 * @file
 * Layer probes the benchmark attaches from outside the program.
 *
 * Each probe is a pass-through implementation of one layer's public
 * interface that forwards every call unchanged and times it:
 *
 *  - ProbedSource wraps an InvocationSource (src/trace cursors);
 *  - ProbedPolicy wraps a KeepAlivePolicy handed to Simulator/Server
 *    (src/core policies);
 *  - probedShardFactory wraps a ShardedWorkload::make_full factory, so
 *    each shard thread of the sharded cluster (src/platform) gets a
 *    timed cursor that also reads that thread's CPU clock.
 *
 * Spans are aggregated in memory by name (count and total ns)
 * rather than recorded one by one: a replay makes tens of millions of
 * calls. A probe only reads what it forwards, so a probed replay's
 * result payload is byte-identical to an unprobed one (the benchmark
 * checks this on every traced run).
 */
#ifndef FAASCACHE_PERFBENCH_PROBES_H_
#define FAASCACHE_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/keepalive_policy.h"
#include "platform/cluster.h"
#include "trace/invocation_source.h"

namespace faascache::perfbench {

/** Monotonic wall clock, nanoseconds. */
inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed by the calling thread so far, nanoseconds. */
std::int64_t threadCpuNs();

/** CPU time (user + sys) consumed by the whole process, nanoseconds. */
std::int64_t processCpuNs();

/** Aggregate of one span name: calls and total duration. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;

    void add(std::int64_t ns)
    {
        ++count;
        total_ns += ns;
    }

    SpanTotals& operator+=(const SpanTotals& other);
};

/** What a cursor probe records. */
struct SourceProbeTotals
{
    SpanTotals peek;
    SpanTotals next;

    std::int64_t totalNs() const { return peek.total_ns + next.total_ns; }

    SourceProbeTotals& operator+=(const SourceProbeTotals& other);
};

/** Pass-through cursor that times peek() and next(). Non-owning. */
class ProbedSource final : public InvocationSource
{
  public:
    /** @param inner, totals Must outlive the probe. */
    ProbedSource(InvocationSource& inner, SourceProbeTotals& totals)
        : inner_(&inner), totals_(&totals)
    {
    }

    const std::string& name() const override { return inner_->name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return inner_->functions();
    }
    bool peek(Invocation& out) override
    {
        const std::int64_t start = wallNs();
        const bool more = inner_->peek(out);
        totals_->peek.add(wallNs() - start);
        return more;
    }
    bool next(Invocation& out) override
    {
        const std::int64_t start = wallNs();
        const bool more = inner_->next(out);
        totals_->next.add(wallNs() - start);
        return more;
    }
    void reset() override { inner_->reset(); }
    SourceCountHint countHint() const override
    {
        return inner_->countHint();
    }

  private:
    InvocationSource* inner_;
    SourceProbeTotals* totals_;
};

/** What a policy probe records. */
struct PolicyProbeTotals
{
    /** selectVictims() calls. */
    SpanTotals victims;

    /** Maintenance decisions: expiredContainers() and duePrewarms(). */
    SpanTotals expiry;

    /** Arrival, warm, cold, prewarm and eviction notifications. */
    SpanTotals notify;

    /** Idle containers in the pool, summed over selectVictims() calls. */
    std::uint64_t idle_seen = 0;

    /** Victims returned, summed over selectVictims() calls. */
    std::uint64_t victims_returned = 0;

    /** selectVictims() calls whose victims could not free `needed_mb`,
     *  so the caller dropped (simulator) or re-queued (server) the
     *  request and evicted nothing. */
    std::uint64_t wasted_victim_calls = 0;

    std::int64_t totalNs() const
    {
        return victims.total_ns + expiry.total_ns + notify.total_ns;
    }
};

/**
 * Pass-through keep-alive policy: forwards every hook and decision to
 * the wrapped policy and times it. The wrapper's own stats() stay empty:
 * the function statistics live in the wrapped policy.
 */
class ProbedPolicy final : public KeepAlivePolicy
{
  public:
    /** @param totals Must outlive the probe. */
    ProbedPolicy(std::unique_ptr<KeepAlivePolicy> inner,
                 PolicyProbeTotals& totals)
        : inner_(std::move(inner)), totals_(&totals)
    {
    }

    std::string name() const override { return inner_->name(); }
    void reserveFunctions(std::size_t n) override;
    void onInvocationArrival(const FunctionSpec& function,
                             TimeUs now) override;
    void onWarmStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onColdStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onPrewarm(Container& container, const FunctionSpec& function,
                   TimeUs now) override;
    void onEviction(const Container& container, bool last_of_function,
                    TimeUs now) override;
    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;
    std::vector<ContainerId> expiredContainers(const ContainerPool& pool,
                                               TimeUs now) override;
    std::vector<FunctionId> duePrewarms(TimeUs now) override;

  private:
    std::unique_ptr<KeepAlivePolicy> inner_;
    PolicyProbeTotals* totals_;
};

/** One shard thread's cursor totals and the thread's CPU time. */
struct ShardSample
{
    SourceProbeTotals cursor;
    std::int64_t thread_cpu_ns = 0;
};

/** Collects one ShardSample per shard cursor; thread-safe. */
class ShardProbeSink
{
  public:
    void record(const ShardSample& sample);

    /** Samples recorded so far, in no particular order. */
    std::vector<ShardSample> samples() const;

  private:
    mutable std::mutex mutex_;
    std::vector<ShardSample> samples_;
};

/**
 * Wrap a cursor factory so every cursor it makes is probed. The sharded
 * cluster calls the factory once on each shard thread and destroys the
 * cursor on that thread when the shard finishes, so the cursor reports
 * the thread's total CPU time to `sink` from its destructor.
 * @param sink Must outlive every cursor the factory makes.
 */
SourceFactory probedShardFactory(SourceFactory inner, ShardProbeSink& sink);

}  // namespace faascache::perfbench

#endif  // FAASCACHE_PERFBENCH_PROBES_H_
