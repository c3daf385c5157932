/**
 * @file
 * Streaming invocation cursors (DESIGN.md §4h).
 *
 * A Trace materializes its whole invocation stream as a resident
 * std::vector, which makes a 14-day Azure-scale trace RAM-bound before
 * it is CPU-bound. InvocationSource is the streaming alternative every
 * execution layer consumes: a forward cursor over a time-sorted
 * invocation stream plus the (small, always resident) function catalog.
 *
 * Three implementations exist, mirroring the repo's oracle strategy
 * (PoolBackend::ReferenceMap, PlatformBackend::Reference):
 *
 *  - TraceSource — wraps a materialized Trace verbatim; the reference
 *    oracle the differential battery compares the others against;
 *  - FtraceSource (ftrace_format.h) — memory-mapped columnar `.ftrace`
 *    file, O(chunk) resident regardless of trace length;
 *  - makeAzureSource (generated_source.h) — the Azure model generated
 *    on the fly by a k-way merge of per-function arrival walks.
 *
 * Cursor contract:
 *  - reset() rewinds to the first invocation; a source is constructed
 *    reset, and reset() may be called any number of times;
 *  - peek() reports the next invocation without consuming it; next()
 *    consumes it; both return false at end of stream;
 *  - the stream is non-decreasing in arrival_us and every function id
 *    is < functions().size() (implementations enforce this and throw
 *    std::runtime_error on violation);
 *  - no arrival lies past kMaxArrivalUs (every engine enforces this with
 *    checkArrivalTime() and throws std::runtime_error on violation);
 *  - countHint() is exact when `exact` is set, otherwise an upper
 *    bound; consumers may use it only to pre-size allocations — never
 *    to change results.
 */
#ifndef FAASCACHE_TRACE_INVOCATION_SOURCE_H_
#define FAASCACHE_TRACE_INVOCATION_SOURCE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace faascache {

/** Throws the error checkArrivalTime() reports. */
[[noreturn]] void throwArrivalPastLimit(const Invocation& inv,
                                        const char* engine);

/**
 * Reject an arrival past kMaxArrivalUs with a std::runtime_error that
 * names `engine`. Every engine runs it on each arrival it sees.
 */
inline void
checkArrivalTime(const Invocation& inv, const char* engine)
{
    if (inv.arrival_us > kMaxArrivalUs) [[unlikely]]
        throwArrivalPastLimit(inv, engine);
}

/** Allocation hint for the total number of invocations of a source. */
struct SourceCountHint
{
    /** Total invocations (exact) or an upper bound. */
    std::size_t count = 0;

    /** True when `count` is the exact stream length. */
    bool exact = false;
};

/** Forward cursor over a time-sorted invocation stream. */
class InvocationSource
{
  public:
    virtual ~InvocationSource() = default;

    /** Display name of the workload (used in bench output). */
    virtual const std::string& name() const = 0;

    /** Function catalog; dense ids, resident for the source's life. */
    virtual const std::vector<FunctionSpec>& functions() const = 0;

    /** Report the next invocation without consuming it.
     *  @return false at end of stream (`out` untouched). */
    virtual bool peek(Invocation& out) = 0;

    /** Consume and report the next invocation.
     *  @return false at end of stream (`out` untouched). */
    virtual bool next(Invocation& out) = 0;

    /** Rewind to the first invocation. */
    virtual void reset() = 0;

    /** Exact count or upper bound of the whole stream. */
    virtual SourceCountHint countHint() const = 0;

    /** Catalog lookup. @pre id < functions().size(). */
    const FunctionSpec& function(FunctionId id) const
    {
        return functions().at(id);
    }
};

/** The materialized-Trace reference oracle. Non-owning. */
class TraceSource final : public InvocationSource
{
  public:
    /** @param trace Must outlive the source. */
    explicit TraceSource(const Trace& trace) : trace_(&trace) {}

    const std::string& name() const override { return trace_->name(); }

    const std::vector<FunctionSpec>& functions() const override
    {
        return trace_->functions();
    }

    bool peek(Invocation& out) override
    {
        if (pos_ >= trace_->invocations().size())
            return false;
        out = trace_->invocations()[pos_];
        return true;
    }

    bool next(Invocation& out) override
    {
        if (pos_ >= trace_->invocations().size())
            return false;
        out = trace_->invocations()[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    SourceCountHint countHint() const override
    {
        return SourceCountHint{trace_->invocations().size(), true};
    }

  private:
    const Trace* trace_;
    std::size_t pos_ = 0;
};

/**
 * Pass-through wrapper that invokes an observer on every *consumed*
 * invocation (next(), not peek()). Lets a second consumer — e.g. the
 * elastic controller's online reuse analyzer — ride the simulator's
 * single pass instead of keeping its own cursor over a materialized
 * vector. Non-owning; the underlying source must outlive the tee.
 */
class TeeSource final : public InvocationSource
{
  public:
    using Observer = std::function<void(const Invocation&)>;

    TeeSource(InvocationSource& inner, Observer observer)
        : inner_(&inner), observer_(std::move(observer))
    {
    }

    const std::string& name() const override { return inner_->name(); }

    const std::vector<FunctionSpec>& functions() const override
    {
        return inner_->functions();
    }

    bool peek(Invocation& out) override { return inner_->peek(out); }

    bool next(Invocation& out) override
    {
        if (!inner_->next(out))
            return false;
        if (observer_)
            observer_(out);
        return true;
    }

    void reset() override { inner_->reset(); }

    SourceCountHint countHint() const override
    {
        return inner_->countHint();
    }

  private:
    InvocationSource* inner_;
    Observer observer_;
};

/**
 * Streaming analogue of Trace::subset(): filters a source down to the
 * selected functions with the identical dense id remap (duplicate keep
 * entries skipped, unknown ids throw std::out_of_range, invocation
 * order and timestamps preserved). Construction runs one counting pass
 * over the inner source so countHint() is exact. Non-owning.
 */
class SubsetSource final : public InvocationSource
{
  public:
    SubsetSource(InvocationSource& inner,
                 const std::vector<FunctionId>& keep, std::string name);

    const std::string& name() const override { return name_; }
    const std::vector<FunctionSpec>& functions() const override
    {
        return functions_;
    }
    bool peek(Invocation& out) override;
    bool next(Invocation& out) override;
    void reset() override { inner_->reset(); }
    SourceCountHint countHint() const override
    {
        return SourceCountHint{kept_invocations_, true};
    }

  private:
    /** Skip inner entries until a kept one is pending (or end). */
    bool settle(Invocation& out);

    InvocationSource* inner_;
    std::string name_;
    std::vector<FunctionSpec> functions_;
    std::vector<FunctionId> remap_;
    std::size_t kept_invocations_ = 0;
};

/**
 * Materialize a source into a Trace (the documented escape hatch for
 * consumers that genuinely need random access — e.g. the Reference
 * platform backend, which preschedules every arrival). Resets the
 * source before and after draining it.
 * @throws std::runtime_error when the stream violates the cursor
 *         contract (out-of-order arrivals, unknown function ids).
 */
Trace materializeSource(InvocationSource& source);

/**
 * Per-function invocation counts via one counting pass (the streaming
 * analogue of Trace::invocationCounts()). Resets the source before and
 * after the pass.
 */
std::vector<std::size_t> countInvocationsPerFunction(
    InvocationSource& source);

}  // namespace faascache

#endif  // FAASCACHE_TRACE_INVOCATION_SOURCE_H_
