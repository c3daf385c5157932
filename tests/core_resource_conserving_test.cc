// Contract of KeepAlivePolicy::resourceConserving(): a policy that
// reports true promises that expiredContainers() and duePrewarms()
// return {} and change no state, which is what lets Server skip the
// maintenance ticks of a quiescent invoker. Non-conserving policies
// (TTL, HIST, the warm pool) must report false, and so must a wrapper
// that does not forward the method.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/container_pool.h"
#include "core/oracle_policy.h"
#include "core/policy_factory.h"
#include "core/warm_pool_policy.h"
#include "trace/function_spec.h"
#include "trace/trace.h"

namespace faascache {
namespace {

constexpr FunctionId kFunctions = 8;
constexpr int kSteps = 60;
constexpr TimeUs kStep = 7 * kSecond;

FunctionSpec
fn(FunctionId id)
{
    return makeFunction(id, "rc" + std::to_string(id),
                        80.0 + 40.0 * static_cast<double>(id % 4),
                        fromMillis(100 + 50 * (id % 3)),
                        fromMillis(500 + 200 * (id % 2)));
}

FunctionId
functionAt(int step)
{
    return static_cast<FunctionId>((step * 5 + step / 7) % kFunctions);
}

/** The workload the driver below replays, for OraclePolicy. */
Trace
contractTrace()
{
    Trace t("resource-conserving");
    for (FunctionId id = 0; id < kFunctions; ++id)
        t.addFunction(fn(id));
    for (int step = 0; step < kSteps; ++step)
        t.addInvocation(functionAt(step), step * kStep);
    return t;
}

std::unique_ptr<KeepAlivePolicy>
makeNamed(const std::string& name, const Trace& trace)
{
    if (name == "ORACLE")
        return std::make_unique<OraclePolicy>(trace);
    if (name == "POOL")
        return std::make_unique<WarmPoolPolicy>(1);
    return makePolicy(policyKindFromName(name));
}

std::vector<std::string>
allPolicyNames()
{
    std::vector<std::string> names;
    for (PolicyKind kind : allPolicyKinds())
        names.push_back(policyKindName(kind));
    names.push_back("ORACLE");
    names.push_back("POOL");
    return names;
}

/**
 * Drive `policy` through warm starts, cold starts and demand evictions
 * on a pool too small for the catalog. When `probe` is set, sweep
 * expiredContainers()/duePrewarms() over a range of instants after
 * every step and expect them empty.
 */
void
drive(KeepAlivePolicy& policy, ContainerPool& pool, bool probe)
{
    policy.reserveFunctions(kFunctions);
    for (int step = 0; step < kSteps; ++step) {
        const TimeUs now = step * kStep;
        const FunctionSpec spec = fn(functionAt(step));
        policy.onInvocationArrival(spec, now);
        if (Container* warm = pool.findIdleWarm(spec.id)) {
            warm->startInvocation(now, now + spec.warm_us);
            policy.onWarmStart(*warm, spec, now);
            warm->finishInvocation();
        } else {
            if (!pool.fits(spec.mem_mb)) {
                const auto victims = policy.selectVictims(
                    pool, spec.mem_mb - pool.freeMb(), now);
                for (ContainerId id : victims) {
                    const Container* c = pool.get(id);
                    ASSERT_NE(c, nullptr);
                    const bool last = pool.countOf(c->function()) == 1;
                    policy.onEviction(*c, last, now);
                    pool.remove(id);
                }
            }
            ASSERT_TRUE(pool.fits(spec.mem_mb)) << "step " << step;
            Container& c = pool.add(spec, now);
            c.startInvocation(now, now + spec.cold_us);
            policy.onColdStart(c, spec, now);
            c.finishInvocation();
        }
        if (!probe)
            continue;
        for (TimeUs later : {TimeUs{0}, kSecond, kStep - 1, 10 * kMinute,
                             kHour, 24 * kHour}) {
            EXPECT_TRUE(policy.expiredContainers(pool, now + later).empty())
                << policy.name() << " step " << step << " +" << later;
            EXPECT_TRUE(policy.duePrewarms(now + later).empty())
                << policy.name() << " step " << step << " +" << later;
        }
    }
}

TEST(ResourceConserving, KnownPoliciesReportTheirFamily)
{
    const Trace trace = contractTrace();
    for (const std::string& name : allPolicyNames()) {
        const bool expected =
            name != "TTL" && name != "HIST" && name != "POOL";
        EXPECT_EQ(makeNamed(name, trace)->resourceConserving(), expected)
            << name;
    }
}

TEST(ResourceConserving, ConservingPoliciesNeverExpireOrPrewarm)
{
    const Trace trace = contractTrace();
    for (const std::string& name : allPolicyNames()) {
        auto policy = makeNamed(name, trace);
        if (!policy->resourceConserving())
            continue;
        ContainerPool pool(400.0);
        drive(*policy, pool, /*probe=*/true);
        EXPECT_GT(pool.size(), 0u) << name;
    }
}

// The probes must not perturb the policy either: a twin that never saw
// them picks the same victims from an identical pool.
TEST(ResourceConserving, ProbesLeaveVictimChoiceUnchanged)
{
    const Trace trace = contractTrace();
    const TimeUs end = kSteps * kStep;
    for (const std::string& name : allPolicyNames()) {
        auto probed = makeNamed(name, trace);
        if (!probed->resourceConserving())
            continue;
        auto twin = makeNamed(name, trace);
        ContainerPool probed_pool(400.0);
        ContainerPool twin_pool(400.0);
        drive(*probed, probed_pool, /*probe=*/true);
        drive(*twin, twin_pool, /*probe=*/false);
        EXPECT_EQ(probed->selectVictims(probed_pool, 400.0, end),
                  twin->selectVictims(twin_pool, 400.0, end))
            << name;
    }
}

/** Forwards every hook of KeepAlivePolicy but resourceConserving(). */
class ForwardingPolicy final : public KeepAlivePolicy
{
  public:
    explicit ForwardingPolicy(std::unique_ptr<KeepAlivePolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    void onInvocationArrival(const FunctionSpec& function,
                             TimeUs now) override
    {
        inner_->onInvocationArrival(function, now);
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
        return inner_->expiredContainers(pool, now);
    }
    std::vector<FunctionId> duePrewarms(TimeUs now) override
    {
        return inner_->duePrewarms(now);
    }

  private:
    std::unique_ptr<KeepAlivePolicy> inner_;
};

TEST(ResourceConserving, WrapperWithoutOverrideReportsFalse)
{
    const ForwardingPolicy wrapped(makePolicy(PolicyKind::GreedyDual));
    EXPECT_EQ(wrapped.name(), "GD");
    EXPECT_FALSE(wrapped.resourceConserving());
}

}  // namespace
}  // namespace faascache
