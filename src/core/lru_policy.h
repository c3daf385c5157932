/**
 * @file
 * Least-Recently-Used keep-alive (paper §4.2): the Greedy-Dual framework
 * with only the access clock as priority. Resource-conserving — warm
 * containers live until memory pressure, then the least recently used
 * idle container is terminated first.
 */
#ifndef FAASCACHE_CORE_LRU_POLICY_H_
#define FAASCACHE_CORE_LRU_POLICY_H_

#include <string>
#include <vector>

#include "core/keepalive_policy.h"

namespace faascache {

/** Recency-only keep-alive. */
class LruPolicy : public KeepAlivePolicy
{
  public:
    std::string name() const override { return "LRU"; }
    bool resourceConserving() const override { return true; }

    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_LRU_POLICY_H_
