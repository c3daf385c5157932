// Test-local KeepAlivePolicy wrapper shared by the Simulator and Server
// housekeeping-skip tests.
#ifndef FAASCACHE_TESTS_HOUSEKEEPING_COUNTING_POLICY_H_
#define FAASCACHE_TESTS_HOUSEKEEPING_COUNTING_POLICY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/keepalive_policy.h"

namespace faascache {

/**
 * Pass-through wrapper that counts the housekeeping calls a driver makes
 * (expiredContainers, duePrewarms) and forwards resourceConserving()
 * only when asked to.
 */
class HousekeepingCountingPolicy final : public KeepAlivePolicy
{
  public:
    HousekeepingCountingPolicy(std::unique_ptr<KeepAlivePolicy> inner,
                               bool forward_conserving,
                               int& housekeeping_calls)
        : inner_(std::move(inner)), forward_conserving_(forward_conserving),
          calls_(&housekeeping_calls)
    {
    }

    std::string name() const override { return inner_->name(); }
    bool resourceConserving() const override
    {
        return forward_conserving_ && inner_->resourceConserving();
    }
    void reserveFunctions(std::size_t n) override
    {
        inner_->reserveFunctions(n);
    }
    void onInvocationArrival(const FunctionSpec& f, TimeUs now) override
    {
        inner_->onInvocationArrival(f, now);
    }
    void onWarmStart(Container& c, const FunctionSpec& f,
                     TimeUs now) override
    {
        inner_->onWarmStart(c, f, now);
    }
    void onColdStart(Container& c, const FunctionSpec& f,
                     TimeUs now) override
    {
        inner_->onColdStart(c, f, now);
    }
    void onPrewarm(Container& c, const FunctionSpec& f, TimeUs now) override
    {
        inner_->onPrewarm(c, f, now);
    }
    void onEviction(const Container& c, bool last, TimeUs now) override
    {
        inner_->onEviction(c, last, now);
    }
    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override
    {
        return inner_->selectVictims(pool, needed_mb, now);
    }
    std::vector<ContainerId> expiredContainers(const ContainerPool& pool,
                                               TimeUs now) override
    {
        ++*calls_;
        return inner_->expiredContainers(pool, now);
    }
    std::vector<FunctionId> duePrewarms(TimeUs now) override
    {
        ++*calls_;
        return inner_->duePrewarms(now);
    }

  private:
    std::unique_ptr<KeepAlivePolicy> inner_;
    bool forward_conserving_;
    int* calls_;
};

}  // namespace faascache

#endif  // FAASCACHE_TESTS_HOUSEKEEPING_COUNTING_POLICY_H_
