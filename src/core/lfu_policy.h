/**
 * @file
 * Least-Frequently-Used keep-alive ("FREQ" in the paper's figures,
 * §4.2): Greedy-Dual with only the frequency term. Containers of the
 * least frequently invoked functions are terminated first; ties break
 * toward least recently used.
 */
#ifndef FAASCACHE_CORE_LFU_POLICY_H_
#define FAASCACHE_CORE_LFU_POLICY_H_

#include <string>
#include <vector>

#include "core/keepalive_policy.h"

namespace faascache {

/** Frequency-only keep-alive. */
class LfuPolicy : public KeepAlivePolicy
{
  public:
    std::string name() const override { return "FREQ"; }
    bool resourceConserving() const override { return true; }

    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_LFU_POLICY_H_
