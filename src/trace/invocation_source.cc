#include "trace/invocation_source.h"

#include <stdexcept>
#include <string>

namespace faascache {

void
throwArrivalPastLimit(const Invocation& inv, const char* engine)
{
    throw std::runtime_error(
        std::string(engine) + ": arrival at " +
        std::to_string(inv.arrival_us) +
        " us is past the latest accepted arrival time (" +
        std::to_string(kMaxArrivalUs) + " us)");
}

SubsetSource::SubsetSource(InvocationSource& inner,
                           const std::vector<FunctionId>& keep,
                           std::string name)
    : inner_(&inner), name_(std::move(name))
{
    // Identical remap construction to Trace::subset().
    remap_.assign(inner_->functions().size(), kInvalidFunction);
    functions_.reserve(keep.size());
    for (FunctionId old_id : keep) {
        if (old_id >= remap_.size())
            throw std::out_of_range("SubsetSource: unknown function id");
        if (remap_[old_id] != kInvalidFunction)
            continue;  // duplicate keep entry
        const auto new_id = static_cast<FunctionId>(functions_.size());
        remap_[old_id] = new_id;
        FunctionSpec spec = inner_->functions()[old_id];
        spec.id = new_id;
        functions_.push_back(std::move(spec));
    }
    // Counting pass for an exact hint.
    inner_->reset();
    Invocation inv;
    while (inner_->next(inv)) {
        if (inv.function >= remap_.size())
            throw std::runtime_error(
                "SubsetSource: inner function id out of range");
        if (remap_[inv.function] != kInvalidFunction)
            ++kept_invocations_;
    }
    inner_->reset();
}

bool SubsetSource::settle(Invocation& out)
{
    while (inner_->peek(out)) {
        if (out.function < remap_.size() &&
            remap_[out.function] != kInvalidFunction)
            return true;
        Invocation discard;
        inner_->next(discard);
    }
    return false;
}

bool SubsetSource::peek(Invocation& out)
{
    if (!settle(out))
        return false;
    out.function = remap_[out.function];
    return true;
}

bool SubsetSource::next(Invocation& out)
{
    if (!settle(out))
        return false;
    Invocation consumed;
    inner_->next(consumed);
    out.function = remap_[consumed.function];
    out.arrival_us = consumed.arrival_us;
    return true;
}

Trace materializeSource(InvocationSource& source)
{
    source.reset();
    Trace out(source.name());
    for (const FunctionSpec& fn : source.functions())
        out.addFunction(fn);

    const SourceCountHint hint = source.countHint();
    out.reserveInvocations(hint.count);

    const std::size_t nfuncs = source.functions().size();
    TimeUs prev = 0;
    bool first = true;
    Invocation inv;
    while (source.next(inv)) {
        if (inv.function >= nfuncs)
            throw std::runtime_error(
                "materializeSource: function id " +
                std::to_string(inv.function) + " out of range (catalog " +
                std::to_string(nfuncs) + ")");
        if (!first && inv.arrival_us < prev)
            throw std::runtime_error(
                "materializeSource: arrivals out of order (" +
                std::to_string(inv.arrival_us) + " after " +
                std::to_string(prev) + ")");
        prev = inv.arrival_us;
        first = false;
        out.addInvocation(inv.function, inv.arrival_us);
    }
    source.reset();
    return out;
}

std::vector<std::size_t> countInvocationsPerFunction(
    InvocationSource& source)
{
    source.reset();
    std::vector<std::size_t> counts(source.functions().size(), 0);
    Invocation inv;
    while (source.next(inv)) {
        if (inv.function >= counts.size())
            throw std::runtime_error(
                "countInvocationsPerFunction: function id " +
                std::to_string(inv.function) + " out of range");
        ++counts[inv.function];
    }
    source.reset();
    return counts;
}

}  // namespace faascache
