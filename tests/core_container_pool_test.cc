#include "core/container_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ttl_policy.h"
#include "sim/simulator.h"
#include "trace/azure_model.h"

namespace faascache {
namespace {

FunctionSpec
fn(FunctionId id, MemMb mem)
{
    return makeFunction(id, "fn" + std::to_string(id), mem, fromMillis(100),
                        fromMillis(100));
}

/** Every behavioral test runs against both storage backends: the slab
 *  arena (default) and the reference hash-map oracle. */
class ContainerPoolTest : public ::testing::TestWithParam<PoolBackend>
{
  protected:
    ContainerPool makePool(MemMb capacity_mb)
    {
        return ContainerPool(capacity_mb, GetParam());
    }
};

TEST_P(ContainerPoolTest, CapacityAccounting)
{
    ContainerPool pool = makePool(1000);
    EXPECT_DOUBLE_EQ(pool.capacityMb(), 1000.0);
    EXPECT_DOUBLE_EQ(pool.usedMb(), 0.0);
    EXPECT_DOUBLE_EQ(pool.freeMb(), 1000.0);

    pool.add(fn(0, 300), 0);
    EXPECT_DOUBLE_EQ(pool.usedMb(), 300.0);
    EXPECT_DOUBLE_EQ(pool.freeMb(), 700.0);
    EXPECT_TRUE(pool.fits(700));
    EXPECT_FALSE(pool.fits(701));
}

TEST_P(ContainerPoolTest, AddRemove)
{
    ContainerPool pool = makePool(1000);
    Container& c = pool.add(fn(0, 100), 0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.countOf(0), 1u);
    pool.remove(c.id());
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.countOf(0), 0u);
    EXPECT_DOUBLE_EQ(pool.usedMb(), 0.0);
}

TEST_P(ContainerPoolTest, IdsAreUnique)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    const ContainerId a_id = a.id();
    pool.remove(a_id);
    Container& b = pool.add(fn(0, 100), 0);
    EXPECT_NE(b.id(), a_id);
}

TEST_P(ContainerPoolTest, GetLookup)
{
    ContainerPool pool = makePool(1000);
    Container& c = pool.add(fn(0, 100), 0);
    EXPECT_EQ(pool.get(c.id()), &c);
    EXPECT_EQ(pool.get(999999), nullptr);
}

TEST_P(ContainerPoolTest, ReferencesStableAcrossGrowth)
{
    // Both backends promise stable Container addresses: the slab stores
    // slots in fixed-size chunks, the reference pool heap-allocates.
    ContainerPool pool = makePool(100'000);
    std::vector<Container*> added;
    std::vector<ContainerId> ids;
    for (int i = 0; i < 600; ++i) {  // crosses two slab chunks
        Container& c = pool.add(fn(0, 1), i);
        added.push_back(&c);
        ids.push_back(c.id());
    }
    for (std::size_t i = 0; i < added.size(); ++i) {
        EXPECT_EQ(pool.get(ids[i]), added[i]);
        EXPECT_EQ(added[i]->id(), ids[i]);
    }
}

TEST_P(ContainerPoolTest, SlotsRecycleButStayUniqueAmongLive)
{
    ContainerPool pool = makePool(10'000);
    Container& a = pool.add(fn(0, 10), 0);
    Container& b = pool.add(fn(0, 10), 0);
    const std::uint32_t freed_slot = a.poolSlot();
    EXPECT_NE(a.poolSlot(), b.poolSlot());
    pool.remove(a.id());
    Container& c = pool.add(fn(1, 10), 1);
    // LIFO free-list: the new container reuses the freed slot, and every
    // live slot stays below the dense upper bound.
    EXPECT_EQ(c.poolSlot(), freed_slot);
    EXPECT_NE(c.poolSlot(), b.poolSlot());
    EXPECT_LT(b.poolSlot(), pool.slotUpperBound());
    EXPECT_LT(c.poolSlot(), pool.slotUpperBound());
}

TEST_P(ContainerPoolTest, FindIdleWarmPrefersMostRecent)
{
    ContainerPool pool = makePool(1000);
    Container& old_c = pool.add(fn(0, 100), 0);
    Container& new_c = pool.add(fn(0, 100), 0);
    old_c.startInvocation(10, 20);
    old_c.finishInvocation();
    new_c.startInvocation(50, 60);
    new_c.finishInvocation();
    EXPECT_EQ(pool.findIdleWarm(0), &new_c);
}

TEST_P(ContainerPoolTest, FindIdleWarmBreaksLastUsedTiesById)
{
    // Freshly added containers share lastUsed == add time; the contract
    // (explicit in both backends) is lowest id wins the tie.
    ContainerPool pool = makePool(1000);
    Container& first = pool.add(fn(0, 100), 7);
    pool.add(fn(0, 100), 7);
    pool.add(fn(0, 100), 7);
    EXPECT_EQ(pool.findIdleWarm(0), &first);
}

TEST_P(ContainerPoolTest, FindIdleWarmSkipsBusy)
{
    ContainerPool pool = makePool(1000);
    Container& c = pool.add(fn(0, 100), 0);
    c.startInvocation(0, 100);
    EXPECT_EQ(pool.findIdleWarm(0), nullptr);
    c.finishInvocation();
    EXPECT_EQ(pool.findIdleWarm(0), &c);
}

TEST_P(ContainerPoolTest, FindIdleWarmWrongFunction)
{
    ContainerPool pool = makePool(1000);
    pool.add(fn(0, 100), 0);
    EXPECT_EQ(pool.findIdleWarm(1), nullptr);
}

TEST_P(ContainerPoolTest, IdleAccounting)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    pool.add(fn(1, 200), 0);
    a.startInvocation(0, 50);
    EXPECT_EQ(pool.idleCount(), 1u);
    EXPECT_DOUBLE_EQ(pool.idleMb(), 200.0);
    EXPECT_EQ(pool.idleContainers().size(), 1u);
}

TEST_P(ContainerPoolTest, ReleaseFinished)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    Container& b = pool.add(fn(1, 100), 0);
    a.startInvocation(0, 50);
    b.startInvocation(0, 200);
    const auto released = pool.releaseFinished(100);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], &a);
    EXPECT_TRUE(a.idle());
    EXPECT_TRUE(b.busy());
}

TEST_P(ContainerPoolTest, ReleaseFinishedAtExactBoundary)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    a.startInvocation(0, 100);
    EXPECT_EQ(pool.releaseFinished(100).size(), 1u);
}

TEST_P(ContainerPoolTest, ReleaseFinishedSortedById)
{
    ContainerPool pool = makePool(10'000);
    std::vector<ContainerId> ids;
    for (int i = 0; i < 8; ++i) {
        Container& c = pool.add(fn(0, 10), 0);
        c.startInvocation(0, 10 + i);
        ids.push_back(c.id());
    }
    const auto released = pool.releaseFinished(100);
    ASSERT_EQ(released.size(), ids.size());
    for (std::size_t i = 1; i < released.size(); ++i)
        EXPECT_LT(released[i - 1]->id(), released[i]->id());
}

TEST_P(ContainerPoolTest, ContainersOfTracksPerFunction)
{
    ContainerPool pool = makePool(1000);
    pool.add(fn(0, 100), 0);
    pool.add(fn(0, 100), 0);
    pool.add(fn(1, 100), 0);
    EXPECT_EQ(pool.containersOf(0).size(), 2u);
    EXPECT_EQ(pool.containersOf(1).size(), 1u);
    EXPECT_TRUE(pool.containersOf(42).empty());
}

TEST_P(ContainerPoolTest, ContainersOfOrderedById)
{
    ContainerPool pool = makePool(10'000);
    for (int i = 0; i < 12; ++i)
        pool.add(fn(0, 10), i);
    const auto mine = pool.containersOf(0);
    ASSERT_EQ(mine.size(), 12u);
    for (std::size_t i = 1; i < mine.size(); ++i)
        EXPECT_LT(mine[i - 1]->id(), mine[i]->id());
}

TEST_P(ContainerPoolTest, CountOfTracksBusyAndIdle)
{
    // countOf must include busy containers in both backends (the slab
    // keeps a separate per-function counter; make sure the busy/idle
    // list transitions never desync it).
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    Container& b = pool.add(fn(0, 100), 0);
    EXPECT_EQ(pool.countOf(0), 2u);
    a.startInvocation(0, 50);
    EXPECT_EQ(pool.countOf(0), 2u);
    b.startInvocation(0, 60);
    EXPECT_EQ(pool.countOf(0), 2u);
    a.finishInvocation();
    EXPECT_EQ(pool.countOf(0), 2u);
    pool.remove(a.id());
    EXPECT_EQ(pool.countOf(0), 1u);
}

TEST_P(ContainerPoolTest, SetCapacityAllowsOverCommit)
{
    ContainerPool pool = makePool(1000);
    pool.add(fn(0, 800), 0);
    pool.setCapacityMb(500);
    EXPECT_DOUBLE_EQ(pool.capacityMb(), 500.0);
    EXPECT_DOUBLE_EQ(pool.usedMb(), 800.0);
    EXPECT_DOUBLE_EQ(pool.freeMb(), 0.0);  // clamped, not negative
    EXPECT_FALSE(pool.fits(1));
}

TEST_P(ContainerPoolTest, IdleContainersDeterministicOrder)
{
    ContainerPool pool = makePool(10'000);
    for (int i = 0; i < 20; ++i)
        pool.add(fn(0, 10), 0);
    const auto idle = pool.idleContainers();
    for (std::size_t i = 1; i < idle.size(); ++i)
        EXPECT_LT(idle[i - 1]->id(), idle[i]->id());
}

TEST_P(ContainerPoolTest, ForEachVisitsAll)
{
    ContainerPool pool = makePool(1000);
    pool.add(fn(0, 100), 0);
    pool.add(fn(1, 100), 0);
    int count = 0;
    pool.forEach([&](Container&) { ++count; });
    EXPECT_EQ(count, 2);
}

TEST_P(ContainerPoolTest, ForEachSkipsRemoved)
{
    ContainerPool pool = makePool(10'000);
    std::vector<ContainerId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(pool.add(fn(0, 10), 0).id());
    for (std::size_t i = 0; i < ids.size(); i += 2)
        pool.remove(ids[i]);
    int count = 0;
    pool.forEach([&](Container& c) {
        ++count;
        EXPECT_NE(pool.get(c.id()), nullptr);
    });
    EXPECT_EQ(count, 5);
}

TEST_P(ContainerPoolTest, ChurnKeepsAccountingExact)
{
    // Add/remove churn far past the initial window exercises slab slot
    // recycling, the id-window compaction, and the free-list.
    ContainerPool pool = makePool(1'000'000);
    std::vector<ContainerId> live;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i)
            live.push_back(pool.add(fn(i % 3, 5), round).id());
        // Remove the older half, front-first.
        const std::size_t goal = live.size() / 2;
        while (live.size() > goal) {
            pool.remove(live.front());
            live.erase(live.begin());
        }
    }
    EXPECT_EQ(pool.size(), live.size());
    EXPECT_DOUBLE_EQ(pool.usedMb(), 5.0 * static_cast<double>(live.size()));
    for (ContainerId id : live) {
        Container* c = pool.get(id);
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->id(), id);
    }
    std::size_t per_function = 0;
    for (FunctionId f = 0; f < 3; ++f)
        per_function += pool.countOf(f);
    EXPECT_EQ(per_function, live.size());
}

TEST_P(ContainerPoolTest, ReserveIsBehaviorNeutral)
{
    ContainerPool pool = makePool(10'000);
    pool.reserve(512);
    Container& c = pool.add(fn(0, 100), 0);
    EXPECT_EQ(pool.get(c.id()), &c);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.countOf(0), 1u);
}

TEST_P(ContainerPoolTest, NeverSeenFunctionsAreEmpty)
{
    ContainerPool pool = makePool(1000);
    pool.reserve(16);
    pool.add(fn(3, 100), 0);
    const ContainerPool& view = pool;
    for (FunctionId f : {FunctionId{0}, FunctionId{7}, FunctionId{8},
                         FunctionId{1u << 30}}) {
        EXPECT_EQ(pool.findIdleWarm(f), nullptr) << f;
        EXPECT_EQ(view.countOf(f), 0u) << f;
        EXPECT_TRUE(view.containersOf(f).empty()) << f;
    }
    EXPECT_EQ(view.countOf(3), 1u);
}

TEST_P(ContainerPoolTest, FunctionIdsGrowPastTheReserveHint)
{
    // Functions first seen out of id order and far beyond the hint keep
    // exact per-function state, and the deep audit stays clean.
    ContainerPool pool = makePool(100'000);
    pool.reserve(16);
    Auditor audit;
    const FunctionId ids[] = {900, 2, 40'000, 5, 900, 2};
    std::vector<ContainerId> made;
    TimeUs t = 0;
    for (FunctionId f : ids)
        made.push_back(pool.add(fn(f, 10), t++).id());
    EXPECT_EQ(pool.countOf(900), 2u);
    EXPECT_EQ(pool.countOf(2), 2u);
    EXPECT_EQ(pool.countOf(40'000), 1u);
    EXPECT_EQ(pool.countOf(5), 1u);
    EXPECT_EQ(pool.countOf(41), 0u);
    // Warmest first: the later of function 900's two containers.
    ASSERT_NE(pool.findIdleWarm(900), nullptr);
    EXPECT_EQ(pool.findIdleWarm(900)->id(), made[4]);
    pool.findIdleWarm(40'000)->startInvocation(t, t + 5);
    EXPECT_EQ(pool.findIdleWarm(40'000), nullptr);
    EXPECT_EQ(pool.countOf(40'000), 1u);
    pool.remove(made[1]);
    EXPECT_EQ(pool.countOf(2), 1u);
    EXPECT_EQ(pool.findIdleWarm(2)->id(), made[5]);
    pool.auditInvariants(audit, t);
    EXPECT_EQ(audit.violationCount(), 0);
}

/** Ids of the containers one drainReleased() call visits, in order. */
std::vector<ContainerId>
drain(ContainerPool& pool)
{
    std::vector<ContainerId> seen;
    pool.drainReleased([&seen](const Container& c) {
        EXPECT_TRUE(c.idle());
        seen.push_back(c.id());
    });
    return seen;
}

TEST_P(ContainerPoolTest, ReleaseLogHoldsASlotOnceHoweverOftenReleased)
{
    ContainerPool pool = makePool(1000);
    Container& c = pool.add(fn(0, 100), 0);  // created idle: logged
    for (TimeUs t = 1; t <= 3; ++t) {
        c.startInvocation(t * 10, t * 10 + 5);
        c.finishInvocation();
    }
    EXPECT_EQ(pool.releaseLogSize(), 1u);
    EXPECT_EQ(drain(pool), std::vector<ContainerId>{c.id()});
    EXPECT_EQ(pool.releaseLogSize(), 0u);
    EXPECT_TRUE(drain(pool).empty());
    // A drain clears the slot's mark, so the next release logs it anew.
    c.startInvocation(100, 105);
    c.finishInvocation();
    c.startInvocation(200, 205);
    c.finishInvocation();
    EXPECT_EQ(drain(pool), std::vector<ContainerId>{c.id()});
}

TEST_P(ContainerPoolTest, ReleaseLogReportsARecycledSlotsNewOccupant)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    const std::uint32_t slot = a.poolSlot();
    const ContainerId a_id = a.id();
    pool.remove(a_id);
    Container& b = pool.add(fn(1, 100), 5);
    ASSERT_EQ(b.poolSlot(), slot);
    EXPECT_EQ(pool.releaseLogSize(), 1u);
    EXPECT_EQ(drain(pool), std::vector<ContainerId>{b.id()});
    // A logged slot whose container is gone reports nothing.
    Container& c = pool.add(fn(2, 100), 6);
    pool.remove(c.id());
    EXPECT_TRUE(drain(pool).empty());
}

TEST_P(ContainerPoolTest, ReleaseLogSkipsBusyThenReportsNextRelease)
{
    ContainerPool pool = makePool(1000);
    Container& a = pool.add(fn(0, 100), 0);
    Container& b = pool.add(fn(1, 100), 0);
    a.startInvocation(1, 50);  // busy at the drain
    EXPECT_EQ(drain(pool), std::vector<ContainerId>{b.id()});
    a.finishInvocation();
    EXPECT_EQ(drain(pool), std::vector<ContainerId>{a.id()});
    EXPECT_TRUE(drain(pool).empty());
}

TEST_P(ContainerPoolTest, ReleaseLogStaysWithinSlotsWhenNeverDrained)
{
    // TTL never drains the log; a busy replay must keep it within the
    // slots handed out, with the audit's view of it consistent.
    AzureModelConfig model;
    model.seed = 3;
    model.num_functions = 80;
    model.duration_us = 20 * kMinute;
    model.iat_median_sec = 60.0;
    const Trace trace = generateAzureTrace(model);
    SimulatorConfig config;
    config.memory_mb = 3000;
    config.pool_backend = GetParam();
    Simulator sim(trace, std::make_unique<TtlPolicy>(20 * kSecond), config);
    std::size_t steps = 0;
    while (!sim.done()) {
        sim.step();
        ++steps;
        ASSERT_LE(sim.pool().releaseLogSize(), sim.pool().slotUpperBound());
    }
    EXPECT_GT(steps, 10 * static_cast<std::size_t>(
                             sim.pool().slotUpperBound()));
    EXPECT_GT(sim.pool().releaseLogSize(), 0u);
    EXPECT_GT(sim.result().expirations, 0);
    EXPECT_GT(sim.result().evictions, 0);
    Auditor audit;
    sim.pool().auditInvariants(audit, sim.now());
    EXPECT_EQ(audit.violationCount(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContainerPoolTest,
                         ::testing::Values(PoolBackend::Slab,
                                           PoolBackend::ReferenceMap),
                         [](const auto& info) {
                             return std::string(
                                 poolBackendName(info.param));
                         });

using ContainerPoolDeathTest = ContainerPoolTest;

TEST_P(ContainerPoolDeathTest, RemoveBusyAsserts)
{
    ContainerPool pool = makePool(1000);
    Container& c = pool.add(fn(0, 100), 0);
    c.startInvocation(0, 100);
    EXPECT_DEATH(pool.remove(c.id()), "");
}

TEST_P(ContainerPoolDeathTest, AddBeyondCapacityAsserts)
{
    ContainerPool pool = makePool(100);
    EXPECT_DEATH(pool.add(fn(0, 200), 0), "");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContainerPoolDeathTest,
                         ::testing::Values(PoolBackend::Slab,
                                           PoolBackend::ReferenceMap),
                         [](const auto& info) {
                             return std::string(
                                 poolBackendName(info.param));
                         });

}  // namespace
}  // namespace faascache
