/**
 * @file
 * The keep-alive policy interface (paper §4).
 *
 * A keep-alive policy is the FaaS analogue of a cache eviction policy:
 * it decides which warm containers to terminate when a new container
 * must be launched and memory is insufficient, and — for non
 * resource-conserving policies such as TTL and HIST — which containers'
 * keep-alive leases have expired. The same interface drives both the
 * trace simulator (§7.1) and the OpenWhisk-like platform model (§7.2).
 */
#ifndef FAASCACHE_CORE_KEEPALIVE_POLICY_H_
#define FAASCACHE_CORE_KEEPALIVE_POLICY_H_

#include <functional>
#include <string>
#include <vector>

#include "core/container_pool.h"
#include "core/function_stats.h"
#include "trace/function_spec.h"

namespace faascache {

/** Abstract keep-alive (container termination) policy. */
class KeepAlivePolicy
{
  public:
    virtual ~KeepAlivePolicy() = default;

    /** Short policy name as used in the paper's figures (GD, TTL, ...). */
    virtual std::string name() const = 0;

    /**
     * Allocation hint: function ids will fall in [0, n). Drivers call
     * this once with the trace catalog size before the run so dense
     * per-function tables can be sized up front. Overrides must call the
     * base. Never required for correctness — tables grow on demand.
     */
    virtual void reserveFunctions(std::size_t n);

    /**
     * Notification: an invocation of `function` arrived at `now`, before
     * any placement decision. Default updates the shared function stats;
     * overrides must call the base.
     */
    virtual void onInvocationArrival(const FunctionSpec& function,
                                     TimeUs now);

    /**
     * Notification: the invocation was served warm by `container`.
     * Simulator and Server call this (and onColdStart) right after
     * Container::startInvocation, so busyUntil() is already set.
     */
    virtual void onWarmStart(Container& container,
                             const FunctionSpec& function, TimeUs now);

    /** Notification: `container` was just created by a cold start. */
    virtual void onColdStart(Container& container,
                             const FunctionSpec& function, TimeUs now);

    /**
     * Notification: `container` was created by proactive prewarming
     * (only HIST requests prewarms). Default treats it as a cold start
     * for bookkeeping.
     */
    virtual void onPrewarm(Container& container,
                           const FunctionSpec& function, TimeUs now);

    /**
     * Notification: `container` was terminated (for space, expiry, or a
     * capacity shrink). Default resets the function's frequency when its
     * last container goes away; overrides must call the base.
     *
     * @param last_of_function Whether the function now has no containers.
     */
    virtual void onEviction(const Container& container,
                            bool last_of_function, TimeUs now);

    /**
     * Decision: pick idle containers to terminate so that at least
     * `needed_mb` MB are freed (the driver asks only when the pool
     * cannot fit a new container). Implementations terminate lowest
     * priority first. If the idle containers cannot cover `needed_mb`,
     * returns the best effort (possibly all idle containers); the driver
     * then drops the request.
     *
     * Drivers release every container due by `now` before asking; the
     * only exception is a Finish due at `now` itself that an event-driven
     * driver has not delivered yet.
     *
     * The pool is non-const because some policies (Landlord) update
     * per-container bookkeeping while deciding.
     */
    virtual std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                                   MemMb needed_mb,
                                                   TimeUs now) = 0;

    /**
     * Decision: idle containers whose keep-alive lease expired at `now`.
     * Resource-conserving policies (the caching family) return {} — they
     * keep containers until memory pressure (paper §4.1).
     */
    virtual std::vector<ContainerId> expiredContainers(
        const ContainerPool& pool, TimeUs now);

    /**
     * Decision: functions that should be prewarmed at or before `now`.
     * Entries returned are consumed from the internal schedule. Only the
     * HIST policy uses this.
     */
    virtual std::vector<FunctionId> duePrewarms(TimeUs now);

    /** Shared per-function statistics. */
    const FunctionStatsTable& stats() const { return stats_; }

  protected:
    /**
     * Helper: greedily select idle containers in ascending `less` order
     * until at least `needed_mb` MB would be freed (best effort).
     */
    static std::vector<ContainerId> selectAscending(
        ContainerPool& pool, MemMb needed_mb,
        const std::function<bool(const Container&, const Container&)>& less);

    FunctionStatsTable stats_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_KEEPALIVE_POLICY_H_
