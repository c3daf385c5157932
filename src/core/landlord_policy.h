/**
 * @file
 * The Landlord online caching algorithm adapted to keep-alive ("LND" in
 * the paper's figures, §4.2; Young 2002).
 *
 * Each container holds a "credit". On every invocation of its function,
 * a container's credit is reset to the function's initialization cost.
 * When space is needed, a rent of delta x size is charged to every idle
 * container, where delta = min over idle containers of credit/size; the
 * containers whose credit reaches zero are evicted. Unlike Greedy-Dual,
 * the priority decrease depends on the global state of the pool rather
 * than being applied independently. Landlord has a proven competitive
 * ratio for online file caching.
 */
#ifndef FAASCACHE_CORE_LANDLORD_POLICY_H_
#define FAASCACHE_CORE_LANDLORD_POLICY_H_

#include <string>
#include <vector>

#include "core/keepalive_policy.h"

namespace faascache {

/** Landlord rent-charging keep-alive. */
class LandlordPolicy : public KeepAlivePolicy
{
  public:
    std::string name() const override { return "LND"; }
    bool resourceConserving() const override { return true; }

    void onWarmStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onColdStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;

  private:
    /** Rent-round buffers, reused across calls: the remaining
     *  candidates, and the round's solvent and insolvent split. */
    std::vector<Container*> candidates_;
    std::vector<Container*> solvent_;
    std::vector<Container*> insolvent_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_LANDLORD_POLICY_H_
