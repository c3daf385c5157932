/**
 * @file
 * Clairvoyant keep-alive baseline: Belady's MIN adapted to function
 * keep-alive. Landlord's competitive ratio (paper §4.2) is stated
 * against exactly this kind of optimal offline algorithm that "knows
 * future requests"; this policy makes the gap measurable.
 *
 * Given the full trace up front, the oracle evicts the idle container
 * whose function is re-invoked farthest in the future (never-again
 * functions first, larger containers first among ties). With multiple
 * containers per function the next-use time is shared — a conservative
 * approximation of the true per-container optimum, which is already
 * NP-hard for non-uniform sizes (weighted caching); MIN-style greedy is
 * the standard offline yardstick.
 */
#ifndef FAASCACHE_CORE_ORACLE_POLICY_H_
#define FAASCACHE_CORE_ORACLE_POLICY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/keepalive_policy.h"
#include "trace/trace.h"

namespace faascache {

/** Offline-optimal (farthest-next-use) keep-alive baseline. */
class OraclePolicy : public KeepAlivePolicy
{
  public:
    /** @param trace The full workload that will be replayed. */
    explicit OraclePolicy(const Trace& trace);

    std::string name() const override { return "ORACLE"; }
    bool resourceConserving() const override { return true; }

    void onInvocationArrival(const FunctionSpec& function,
                             TimeUs now) override;
    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;

    /**
     * Arrival time of `function`'s next invocation strictly after
     * `now`, or -1 if it is never invoked again.
     */
    TimeUs nextUseAfter(FunctionId function, TimeUs now) const;

  private:
    /** Sorted arrival times per function. */
    std::vector<std::vector<TimeUs>> arrivals_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_ORACLE_POLICY_H_
