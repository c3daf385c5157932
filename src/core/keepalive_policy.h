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

#include <algorithm>
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
     * this once with the trace catalog size before the run. The built-in
     * policies ignore it, since their per-function tables are sized by
     * the functions they see, not by the catalog (DESIGN.md §4d); a
     * wrapper forwards it. Never required for correctness.
     */
    virtual void reserveFunctions(std::size_t /*n*/) {}

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
     * The candidates are the containers idle in `pool` at the call,
     * however the driver timed their releases: an event-driven driver
     * may ask before delivering a Finish due at `now`, and background
     * reclaim may ask at an instant earlier than releases it already
     * delivered. No policy assumes more.
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

    /**
     * Is this policy resource-conserving (paper §4.1)? A true answer is
     * a promise that expiredContainers() and duePrewarms() always return
     * {} and change no state, so a periodic housekeeping pass over an
     * idle pool does nothing. Drivers may then skip such passes
     * (Server parks the maintenance tick of a quiescent invoker).
     * The base answers false: a wrapper that does not forward this
     * method only loses the shortcut, never exactness.
     */
    virtual bool resourceConserving() const { return false; }

    /** Shared per-function statistics. */
    const FunctionStatsTable& stats() const { return stats_; }

  protected:
    /**
     * Helper: greedily select idle containers in ascending `less` order
     * until at least `needed_mb` MB would be freed (best effort).
     *
     * Heap selection: the idle containers are gathered into a buffer
     * reused between calls, heapified under the reversed order, and
     * popped only until `needed_mb` is covered — O(n + k log n) for k
     * victims out of n idle containers, where a full sort would cost
     * O(n log n) to take the first one or two.
     *
     * @pre `less` is a strict total order over containers (every
     *      caller's order ends in Container::id()). The popped prefix is
     *      then exactly the sorted prefix, in the same order, whatever
     *      order the pool enumerates its containers in.
     */
    template <typename Less>
    std::vector<ContainerId> selectAscending(ContainerPool& pool,
                                             MemMb needed_mb, Less less);

    FunctionStatsTable stats_;

  private:
    /** selectAscending's heap buffer; holds no state between calls. */
    std::vector<Container*> victim_heap_;
};

template <typename Less>
std::vector<ContainerId>
KeepAlivePolicy::selectAscending(ContainerPool& pool, MemMb needed_mb,
                                 Less less)
{
    std::vector<ContainerId> victims;
    if (needed_mb <= 0)
        return victims;
    std::vector<Container*>& heap = victim_heap_;
    heap.clear();
    pool.forEach([&heap](Container& c) {
        if (c.idle())
            heap.push_back(&c);
    });
    // std heaps keep the greatest element on top, so the reversed order
    // puts the least container (the next victim) there.
    const auto after = [&less](const Container* a, const Container* b) {
        return less(*b, *a);
    };
    std::make_heap(heap.begin(), heap.end(), after);
    MemMb freed = 0;
    for (auto end = heap.end(); freed < needed_mb && end != heap.begin();
         --end) {
        std::pop_heap(heap.begin(), end, after);
        const Container* victim = *(end - 1);
        victims.push_back(victim->id());
        freed += victim->memMb();
    }
    return victims;
}

}  // namespace faascache

#endif  // FAASCACHE_CORE_KEEPALIVE_POLICY_H_
