#include "core/histogram_policy.h"

#include <algorithm>
#include <cassert>

namespace faascache {

HistogramPolicy::HistogramPolicy(HistogramPolicyConfig config)
    : config_(config)
{
    assert(config.bucket_width_us > 0);
    assert(config.num_buckets > 0);
}

HistogramPolicy::FunctionModel&
HistogramPolicy::modelOf(FunctionId function)
{
    std::optional<FunctionModel>& model = models_[function];
    if (!model.has_value())
        model.emplace(config_);
    return *model;
}

void
HistogramPolicy::setLease(const Container& container, TimeUs deadline)
{
    const std::uint32_t slot = container.poolSlot();
    if (slot >= leases_.size()) {
        leases_.resize(std::max<std::size_t>(
            static_cast<std::size_t>(slot) + 1, leases_.size() * 2));
    }
    leases_[slot] = Lease{container.id(), deadline};
}

KeepAliveWindow
HistogramPolicy::windowFor(FunctionId function) const
{
    KeepAliveWindow window;
    window.keepalive_us = config_.generic_ttl_us;

    const std::optional<FunctionModel>* found = models_.find(function);
    if (found == nullptr || !found->has_value())
        return window;
    const FunctionModel& model = **found;
    if (model.iat_moments.count() < config_.min_samples)
        return window;
    if (model.iat_moments.coefficientOfVariation() > config_.cov_threshold)
        return window;
    if (model.iat_histogram.overflowFraction() >
        config_.max_out_of_bounds_fraction) {
        return window;
    }

    window.predictable = true;
    // The head must be *early*: take the lower edge of the head
    // percentile's bucket (the percentile query returns the upper
    // edge, which would schedule the prewarm after the arrival it is
    // meant to anticipate).
    const double head_upper =
        model.iat_histogram.percentile(config_.head_percentile);
    const double head =
        std::max(0.0,
                 head_upper - static_cast<double>(config_.bucket_width_us)) *
        config_.head_margin;
    const double tail =
        model.iat_histogram.percentile(config_.tail_percentile) *
        config_.tail_margin;
    TimeUs prewarm = static_cast<TimeUs>(head);
    auto keepalive = static_cast<TimeUs>(tail);
    if (prewarm < config_.prewarm_min_us)
        prewarm = 0;  // too soon to bother unloading: just stay warm
    keepalive = std::max(keepalive, prewarm + config_.bucket_width_us);
    window.prewarm_us = prewarm;
    window.keepalive_us = keepalive;
    return window;
}

void
HistogramPolicy::onInvocationArrival(const FunctionSpec& function, TimeUs now)
{
    KeepAlivePolicy::onInvocationArrival(function, now);
    FunctionModel& model = modelOf(function.id);
    if (model.last_arrival_us >= 0) {
        const auto iat = static_cast<double>(now - model.last_arrival_us);
        model.iat_histogram.add(iat);
        model.iat_moments.add(iat);
    }
    model.last_arrival_us = now;

    // Plan the next prewarm from this arrival, if the function is
    // predictable and its head is far enough away to unload meanwhile.
    const KeepAliveWindow window = windowFor(function.id);
    if (window.predictable && window.prewarm_us > 0)
        prewarm_schedule_.push({now + window.prewarm_us, function.id});
}

void
HistogramPolicy::assignExpiry(Container& container, FunctionId function,
                              TimeUs now)
{
    const KeepAliveWindow window = windowFor(function);
    if (window.predictable && window.prewarm_us > 0) {
        // Release as soon as the execution finishes; the scheduled
        // prewarm will bring a container back shortly before the
        // predicted next invocation.
        setLease(container, now);
    } else {
        setLease(container, now + window.keepalive_us);
    }
}

void
HistogramPolicy::onWarmStart(Container& container,
                             const FunctionSpec& function, TimeUs now)
{
    assignExpiry(container, function.id, now);
}

void
HistogramPolicy::onColdStart(Container& container,
                             const FunctionSpec& function, TimeUs now)
{
    assignExpiry(container, function.id, now);
}

void
HistogramPolicy::onPrewarm(Container& container, const FunctionSpec& function,
                           TimeUs now)
{
    // Keep the prewarmed container until the predicted tail, measured
    // from the arrival that scheduled the prewarm. `now` is the prewarm
    // (head) instant, so the remaining lease is tail - head.
    const KeepAliveWindow window = windowFor(function.id);
    const TimeUs lease = window.predictable
        ? std::max<TimeUs>(window.keepalive_us - window.prewarm_us,
                           config_.bucket_width_us)
        : config_.generic_ttl_us;
    setLease(container, now + lease);
}

void
HistogramPolicy::onEviction(const Container& container, bool last_of_function,
                            TimeUs now)
{
    KeepAlivePolicy::onEviction(container, last_of_function, now);
    const std::uint32_t slot = container.poolSlot();
    if (slot < leases_.size() && leases_[slot].id == container.id())
        leases_[slot] = Lease{};
}

std::vector<ContainerId>
HistogramPolicy::selectVictims(ContainerPool& pool, MemMb needed_mb, TimeUs)
{
    return selectAscending(pool, needed_mb,
                           [](const Container& a, const Container& b) {
                               if (a.lastUsed() != b.lastUsed())
                                   return a.lastUsed() < b.lastUsed();
                               return a.id() < b.id();
                           });
}

std::vector<ContainerId>
HistogramPolicy::expiredContainers(const ContainerPool& pool, TimeUs now)
{
    std::vector<ContainerId> expired;
    pool.forEach([&](const Container& c) {
        if (!c.idle())
            return;
        const std::uint32_t slot = c.poolSlot();
        const bool leased =
            slot < leases_.size() && leases_[slot].id == c.id();
        const TimeUs deadline = leased
            ? leases_[slot].deadline_us
            : c.lastUsed() + config_.generic_ttl_us;
        if (now >= deadline)
            expired.push_back(c.id());
    });
    return expired;
}

std::vector<FunctionId>
HistogramPolicy::duePrewarms(TimeUs now)
{
    std::vector<FunctionId> due;
    while (!prewarm_schedule_.empty() &&
           prewarm_schedule_.top().due_us <= now) {
        const FunctionId fn = prewarm_schedule_.top().function;
        prewarm_schedule_.pop();
        if (std::find(due.begin(), due.end(), fn) == due.end())
            due.push_back(fn);
    }
    return due;
}

}  // namespace faascache
