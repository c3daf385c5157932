/**
 * @file
 * Size-aware keep-alive ("SIZE" in the paper's figures, §4.2):
 * Greedy-Dual with priority 1/size. The largest idle containers are
 * terminated first, which is attractive when server memory is at a
 * premium; ties break toward least recently used.
 */
#ifndef FAASCACHE_CORE_SIZE_POLICY_H_
#define FAASCACHE_CORE_SIZE_POLICY_H_

#include <string>
#include <vector>

#include "core/keepalive_policy.h"

namespace faascache {

/** Size-only keep-alive (largest evicted first). */
class SizePolicy : public KeepAlivePolicy
{
  public:
    std::string name() const override { return "SIZE"; }
    bool resourceConserving() const override { return true; }

    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_SIZE_POLICY_H_
