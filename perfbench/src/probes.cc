#include "probes.h"

#include <time.h>

#include <utility>

namespace faascache::perfbench {

namespace {

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
        ts.tv_nsec;
}

/** Owning probed cursor for one shard thread (see probedShardFactory). */
class ShardCursor final : public InvocationSource
{
  public:
    ShardCursor(std::unique_ptr<InvocationSource> inner, ShardProbeSink& sink)
        : inner_(std::move(inner)), probe_(*inner_, totals_), sink_(&sink)
    {
    }

    ~ShardCursor() override
    {
        sink_->record(ShardSample{totals_, threadCpuNs()});
    }

    ShardCursor(const ShardCursor&) = delete;
    ShardCursor& operator=(const ShardCursor&) = delete;

    const std::string& name() const override { return probe_.name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return probe_.functions();
    }
    bool peek(Invocation& out) override { return probe_.peek(out); }
    bool next(Invocation& out) override { return probe_.next(out); }
    void reset() override { probe_.reset(); }
    SourceCountHint countHint() const override
    {
        return probe_.countHint();
    }

  private:
    std::unique_ptr<InvocationSource> inner_;
    SourceProbeTotals totals_;
    ProbedSource probe_;
    ShardProbeSink* sink_;
};

}  // namespace

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

SpanTotals&
SpanTotals::operator+=(const SpanTotals& other)
{
    count += other.count;
    total_ns += other.total_ns;
    return *this;
}

SourceProbeTotals&
SourceProbeTotals::operator+=(const SourceProbeTotals& other)
{
    peek += other.peek;
    next += other.next;
    return *this;
}

void
ProbedPolicy::reserveFunctions(std::size_t n)
{
    inner_->reserveFunctions(n);
}

void
ProbedPolicy::onInvocationArrival(const FunctionSpec& function, TimeUs now)
{
    const std::int64_t start = wallNs();
    inner_->onInvocationArrival(function, now);
    totals_->notify.add(wallNs() - start);
}

void
ProbedPolicy::onWarmStart(Container& container, const FunctionSpec& function,
                          TimeUs now)
{
    const std::int64_t start = wallNs();
    inner_->onWarmStart(container, function, now);
    totals_->notify.add(wallNs() - start);
}

void
ProbedPolicy::onColdStart(Container& container, const FunctionSpec& function,
                          TimeUs now)
{
    const std::int64_t start = wallNs();
    inner_->onColdStart(container, function, now);
    totals_->notify.add(wallNs() - start);
}

void
ProbedPolicy::onPrewarm(Container& container, const FunctionSpec& function,
                        TimeUs now)
{
    const std::int64_t start = wallNs();
    inner_->onPrewarm(container, function, now);
    totals_->notify.add(wallNs() - start);
}

void
ProbedPolicy::onEviction(const Container& container, bool last_of_function,
                         TimeUs now)
{
    const std::int64_t start = wallNs();
    inner_->onEviction(container, last_of_function, now);
    totals_->notify.add(wallNs() - start);
}

std::vector<ContainerId>
ProbedPolicy::selectVictims(ContainerPool& pool, MemMb needed_mb, TimeUs now)
{
    totals_->idle_seen += pool.idleCount();
    const std::int64_t start = wallNs();
    std::vector<ContainerId> victims =
        inner_->selectVictims(pool, needed_mb, now);
    totals_->victims.add(wallNs() - start);
    totals_->victims_returned += victims.size();
    MemMb freed = 0;
    for (ContainerId id : victims)
        freed += pool.get(id)->memMb();
    if (freed < needed_mb)
        ++totals_->wasted_victim_calls;
    return victims;
}

std::vector<ContainerId>
ProbedPolicy::expiredContainers(const ContainerPool& pool, TimeUs now)
{
    const std::int64_t start = wallNs();
    std::vector<ContainerId> expired = inner_->expiredContainers(pool, now);
    totals_->expiry.add(wallNs() - start);
    return expired;
}

std::vector<FunctionId>
ProbedPolicy::duePrewarms(TimeUs now)
{
    const std::int64_t start = wallNs();
    std::vector<FunctionId> due = inner_->duePrewarms(now);
    totals_->expiry.add(wallNs() - start);
    return due;
}

void
ShardProbeSink::record(const ShardSample& sample)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(sample);
}

std::vector<ShardSample>
ShardProbeSink::samples() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

SourceFactory
probedShardFactory(SourceFactory inner, ShardProbeSink& sink)
{
    return [inner = std::move(inner), &sink]()
               -> std::unique_ptr<InvocationSource> {
        return std::make_unique<ShardCursor>(inner(), sink);
    };
}

}  // namespace faascache::perfbench
