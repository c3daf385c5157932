/**
 * @file
 * A live container instance hosting (or kept warm for) one function.
 *
 * Containers are the unit of eviction: keep-alive policies compute a
 * priority per container (paper §4.1) and the pool terminates the lowest
 * priority idle containers under memory pressure. A container is either
 * running an invocation (busy) or idle/warm; only idle containers may be
 * evicted.
 *
 * A container owned by a ContainerPool notifies the pool on every
 * busy/idle transition so the pool can maintain its intrusive idle/busy
 * lists without scanning (DESIGN.md §4d). Standalone containers (unit
 * tests) have no pool bound and skip the notification.
 */
#ifndef FAASCACHE_CORE_CONTAINER_H_
#define FAASCACHE_CORE_CONTAINER_H_

#include <cstdint>

#include "trace/function_spec.h"
#include "util/types.h"

namespace faascache {

class ContainerPool;

/** One virtual execution environment for a single function. */
class Container
{
  public:
    /** An invalid placeholder (unoccupied slab slot). */
    Container() = default;

    /**
     * @param id        Pool-unique identifier.
     * @param function  Function this container can execute.
     * @param now       Creation time.
     * @param prewarmed Whether the container was created ahead of an
     *                  invocation (HIST prewarming) rather than by a
     *                  cold start.
     */
    Container(ContainerId id, const FunctionSpec& function, TimeUs now,
              bool prewarmed = false);

    ContainerId id() const { return id_; }
    FunctionId function() const { return function_; }

    /** Memory footprint while alive (busy or warm), MB. */
    MemMb memMb() const { return mem_mb_; }

    TimeUs createdAt() const { return created_at_; }
    bool prewarmed() const { return prewarmed_; }

    /** Whether an invocation is currently executing here. */
    bool busy() const { return busy_; }
    bool idle() const { return !busy_; }

    /** Completion time of the current invocation (valid while busy). */
    TimeUs busyUntil() const { return busy_until_; }

    /** Start of the most recent invocation (creation time if none). */
    TimeUs lastUsed() const { return last_used_; }

    /** Invocations served by this particular container. */
    std::int64_t useCount() const { return use_count_; }

    /**
     * Dense index of this container inside its owning pool (stable for
     * the container's lifetime, recycled after removal). Policies use it
     * to key per-container state in flat arrays instead of hash maps.
     * Zero for unbound (standalone) containers.
     */
    std::uint32_t poolSlot() const { return pool_slot_; }

    /**
     * Begin executing an invocation.
     * @pre idle(); finish_us >= now.
     */
    void startInvocation(TimeUs now, TimeUs finish_us);

    /** Mark the current invocation complete. @pre busy(). */
    void finishInvocation();

    /**
     * @name Policy bookkeeping
     * Scratch fields owned by the keep-alive policy attached to the pool.
     * @{
     */
    double priority() const { return priority_; }
    void setPriority(double p) { priority_ = p; }

    /** Landlord credit. */
    double credit() const { return credit_; }
    void setCredit(double c) { credit_ = c; }

    /** Greedy-Dual logical-clock value captured at this container's
     *  last use (used to break ties among a function's containers). */
    double policyClock() const { return policy_clock_; }
    void setPolicyClock(double c) { policy_clock_ = c; }
    /** @} */

  private:
    friend class ContainerPool;

    /** Attach to `pool` as slot `slot` (pool-internal). */
    void bindPool(ContainerPool* pool, std::uint32_t slot)
    {
        pool_ = pool;
        pool_slot_ = slot;
    }

    ContainerId id_ = kInvalidContainer;
    FunctionId function_ = kInvalidFunction;
    MemMb mem_mb_ = 0;
    TimeUs created_at_ = 0;
    bool prewarmed_ = false;

    bool busy_ = false;
    TimeUs busy_until_ = 0;
    TimeUs last_used_ = 0;
    std::int64_t use_count_ = 0;

    double priority_ = 0.0;
    double credit_ = 0.0;
    double policy_clock_ = 0.0;

    /** Owning pool (null for standalone containers) and slab slot. */
    ContainerPool* pool_ = nullptr;
    std::uint32_t pool_slot_ = 0;
    /** The slab pool's row of this container's function, cached at add
     *  so busy/idle/remove transitions skip the id lookup. */
    std::uint32_t pool_row_ = 0;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_CONTAINER_H_
