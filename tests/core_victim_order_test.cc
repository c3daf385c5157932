// Differential battery for the ranked victim search
// (KeepAlivePolicy::selectAscending). The product selects victims by
// heap selection over the pool's enumeration order; the oracle here is
// the sort-based selection it replaced — idle containers ordered by id,
// fully sorted under the policy's order, ascending prefix taken until
// the request is covered. For every policy that ranks through the
// helper (TTL in both victim orders), on both pool backends, seeded
// random pools with mixed busy/idle containers and deliberate ties in
// every primary key must yield the same victim ids in the same order.
// Landlord (LND), which charges rent in rounds instead of ranking, has
// its own battery at the end: its candidates come from the pool walk,
// and the oracle is the body that started from the id-sorted idle list.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/container_pool.h"
#include "core/histogram_policy.h"
#include "core/landlord_policy.h"
#include "core/lfu_policy.h"
#include "core/lru_policy.h"
#include "core/oracle_policy.h"
#include "core/size_policy.h"
#include "core/ttl_policy.h"
#include "core/warm_pool_policy.h"
#include "trace/function_spec.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace faascache {
namespace {

using Order = std::function<bool(const Container&, const Container&)>;

/** The pre-heap selection: sort every idle container, take a prefix. */
std::vector<ContainerId>
sortedPrefixOracle(ContainerPool& pool, MemMb needed_mb, const Order& less)
{
    std::vector<Container*> idle = pool.idleContainers();
    std::sort(idle.begin(), idle.end(),
              [&](const Container* a, const Container* b) {
                  return less(*a, *b);
              });
    std::vector<ContainerId> victims;
    MemMb freed = 0;
    for (const Container* c : idle) {
        if (freed >= needed_mb)
            break;
        victims.push_back(c->id());
        freed += c->memMb();
    }
    return victims;
}

enum class Ranked {
    TtlLru,
    TtlOldestCreated,
    Lru,
    Lfu,
    Size,
    Hist,
    WarmPool,
    Oracle,
};

const char*
rankedName(Ranked kind)
{
    switch (kind) {
    case Ranked::TtlLru: return "TTL_lru";
    case Ranked::TtlOldestCreated: return "TTL_oldest_created";
    case Ranked::Lru: return "LRU";
    case Ranked::Lfu: return "LFU";
    case Ranked::Size: return "SIZE";
    case Ranked::Hist: return "HIST";
    case Ranked::WarmPool: return "WARM_POOL";
    case Ranked::Oracle: return "ORACLE";
    }
    return "?";
}

bool
lruOrder(const Container& a, const Container& b)
{
    if (a.lastUsed() != b.lastUsed())
        return a.lastUsed() < b.lastUsed();
    return a.id() < b.id();
}

/** A policy under test and the victim order its documentation states. */
struct Subject
{
    std::unique_ptr<KeepAlivePolicy> policy;
    Order order;
};

/** `now` is read at every comparison: ORACLE ranks by next use after it. */
Subject
makeSubject(Ranked kind, const Trace& trace, const TimeUs& now)
{
    Subject s;
    switch (kind) {
    case Ranked::TtlLru:
        s.policy = std::make_unique<TtlPolicy>(
            kHour, TtlVictimOrder::LeastRecentlyUsed);
        s.order = lruOrder;
        break;
    case Ranked::TtlOldestCreated:
        s.policy = std::make_unique<TtlPolicy>(
            kHour, TtlVictimOrder::OldestCreated);
        s.order = [](const Container& a, const Container& b) {
            if (a.createdAt() != b.createdAt())
                return a.createdAt() < b.createdAt();
            return a.id() < b.id();
        };
        break;
    case Ranked::Lru:
        s.policy = std::make_unique<LruPolicy>();
        s.order = lruOrder;
        break;
    case Ranked::Lfu: {
        s.policy = std::make_unique<LfuPolicy>();
        const FunctionStatsTable& stats = s.policy->stats();
        s.order = [&stats](const Container& a, const Container& b) {
            const auto fa = stats.of(a.function()).frequency;
            const auto fb = stats.of(b.function()).frequency;
            if (fa != fb)
                return fa < fb;
            return lruOrder(a, b);
        };
        break;
    }
    case Ranked::Size:
        s.policy = std::make_unique<SizePolicy>();
        s.order = [](const Container& a, const Container& b) {
            if (a.memMb() != b.memMb())
                return a.memMb() > b.memMb();
            return lruOrder(a, b);
        };
        break;
    case Ranked::Hist:
        s.policy = std::make_unique<HistogramPolicy>();
        s.order = lruOrder;
        break;
    case Ranked::WarmPool:
        s.policy = std::make_unique<WarmPoolPolicy>(2);
        s.order = lruOrder;
        break;
    case Ranked::Oracle: {
        auto oracle = std::make_unique<OraclePolicy>(trace);
        const OraclePolicy* o = oracle.get();
        // Farthest next use first (never again is farthest), then the
        // larger container, then the lower id.
        s.order = [o, &now](const Container& a, const Container& b) {
            auto key = [&](const Container& c) {
                const TimeUs next = o->nextUseAfter(c.function(), now);
                return next < 0 ? std::numeric_limits<TimeUs>::max()
                                : next;
            };
            if (key(a) != key(b))
                return key(a) > key(b);
            if (a.memMb() != b.memMb())
                return a.memMb() > b.memMb();
            return a.id() < b.id();
        };
        s.policy = std::move(oracle);
        break;
    }
    }
    return s;
}

/**
 * 24 functions over three memory sizes, arrivals on a whole-second
 * grid with bursts at equal timestamps (so concurrent cold starts tie
 * on createdAt and lastUsed, and same-function containers tie on
 * frequency and next use). The tail of the trace lies past the point
 * where the battery stops driving, so ORACLE sees real next uses.
 */
Trace
randomTrace(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace("victim-order");
    const MemMb sizes[] = {128, 256, 512};
    for (FunctionId f = 0; f < 24; ++f)
        trace.addFunction(makeFunction(
            f, "f" + std::to_string(f), sizes[rng.uniformInt(3)],
            static_cast<TimeUs>(1 + rng.uniformInt(3)) * kSecond,
            kSecond));
    TimeUs t = 0;
    for (int i = 0; i < 600; ++i) {
        t += static_cast<TimeUs>(rng.uniformInt(3)) * kSecond;
        // Skewed popularity: low ids are hot, so several of their
        // containers are alive (and idle) at once.
        const auto f = static_cast<FunctionId>(
            std::min(rng.uniformInt(24), rng.uniformInt(24)));
        trace.addInvocation(f, t);
    }
    return trace;
}

class VictimOrderTest
    : public ::testing::TestWithParam<std::tuple<PoolBackend, Ranked>>
{
  protected:
    PoolBackend backend() const { return std::get<0>(GetParam()); }
    Ranked kind() const { return std::get<1>(GetParam()); }
};

/** Primary-key ties seen among idle containers at the checkpoints. */
struct TieCoverage
{
    bool last_used = false;
    bool created_at = false;
    bool memory = false;
    bool frequency = false;
};

void
noteTies(const ContainerPool& pool, const FunctionStatsTable& stats,
         TieCoverage* ties)
{
    const std::vector<const Container*> idle = pool.idleContainers();
    for (std::size_t i = 0; i < idle.size(); ++i) {
        for (std::size_t j = i + 1; j < idle.size(); ++j) {
            const Container& a = *idle[i];
            const Container& b = *idle[j];
            ties->last_used |= a.lastUsed() == b.lastUsed();
            ties->created_at |= a.createdAt() == b.createdAt();
            ties->memory |= a.memMb() == b.memMb();
            ties->frequency |= stats.of(a.function()).frequency ==
                stats.of(b.function()).frequency;
        }
    }
}

TEST_P(VictimOrderTest, HeapSelectionEqualsSortedPrefix)
{
    TieCoverage ties;
    std::size_t pressure_checks = 0;
    std::size_t busy_at_end = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Trace trace = randomTrace(seed);
        TimeUs now = 0;
        Subject subject = makeSubject(kind(), trace, now);
        KeepAlivePolicy& policy = *subject.policy;
        policy.reserveFunctions(trace.functions().size());
        ContainerPool pool(1024.0 * static_cast<MemMb>(2 + seed % 5),
                           backend());

        auto expectSameVictims = [&](MemMb needed_mb) {
            const std::vector<ContainerId> expected =
                sortedPrefixOracle(pool, needed_mb, subject.order);
            const std::vector<ContainerId> actual =
                policy.selectVictims(pool, needed_mb, now);
            EXPECT_EQ(actual, expected)
                << "needed_mb " << needed_mb << " at t=" << now;
            return actual;
        };

        auto evict = [&](ContainerId id) {
            const Container& c = *pool.get(id);
            policy.onEviction(c, pool.countOf(c.function()) == 1, now);
            pool.remove(id);
        };

        // Drive the first two thirds of the trace like a simulator,
        // checking every pressure eviction against the oracle.
        const auto& arrivals = trace.invocations();
        const std::size_t stop = arrivals.size() * 2 / 3;
        for (std::size_t i = 0; i < stop; ++i) {
            now = arrivals[i].arrival_us;
            const FunctionSpec& spec = trace.function(arrivals[i].function);
            pool.releaseFinished(now);
            policy.onInvocationArrival(spec, now);
            if (Container* warm = pool.findIdleWarm(spec.id)) {
                warm->startInvocation(now, now + spec.warm_us);
                policy.onWarmStart(*warm, spec, now);
                continue;
            }
            for (ContainerId id : policy.expiredContainers(pool, now))
                evict(id);
            if (!pool.fits(spec.mem_mb)) {
                ++pressure_checks;
                noteTies(pool, policy.stats(), &ties);
                const MemMb short_mb = pool.usedMb() + spec.mem_mb -
                    pool.capacityMb();
                for (ContainerId id : expectSameVictims(short_mb))
                    evict(id);
                if (!pool.fits(spec.mem_mb))
                    continue;  // dropped: busy containers hold the memory
            }
            Container& cold = pool.add(spec, now);
            cold.startInvocation(now, now + spec.cold_us);
            policy.onColdStart(cold, spec, now);
        }

        // Boundary requests against the final, partly busy pool.
        noteTies(pool, policy.stats(), &ties);
        busy_at_end += pool.size() - pool.idleCount();
        const std::vector<ContainerId> order =
            sortedPrefixOracle(pool, pool.idleMb() + 1, subject.order);
        EXPECT_TRUE(expectSameVictims(0).empty());
        EXPECT_TRUE(expectSameVictims(-64).empty());
        expectSameVictims(1);
        expectSameVictims(pool.idleMb());
        EXPECT_EQ(expectSameVictims(pool.idleMb() + 1).size(),
                  pool.idleCount());
        // Exact prefix sums (the first is exactly one container) and
        // the points halfway between them.
        MemMb prefix = 0;
        for (ContainerId id : order) {
            const MemMb mem = pool.get(id)->memMb();
            expectSameVictims(prefix + mem / 2);
            expectSameVictims(prefix + mem);
            prefix += mem;
        }
    }
    // The battery means something only if it met pressure, busy
    // containers, and ties in every primary key.
    EXPECT_GT(pressure_checks, 100u);
    EXPECT_GT(busy_at_end, 0u);
    EXPECT_TRUE(ties.last_used);
    EXPECT_TRUE(ties.created_at);
    EXPECT_TRUE(ties.memory);
    EXPECT_TRUE(ties.frequency);
}

INSTANTIATE_TEST_SUITE_P(
    AllRankedPolicies, VictimOrderTest,
    ::testing::Combine(
        ::testing::Values(PoolBackend::Slab, PoolBackend::ReferenceMap),
        ::testing::Values(Ranked::TtlLru, Ranked::TtlOldestCreated,
                          Ranked::Lru, Ranked::Lfu, Ranked::Size,
                          Ranked::Hist, Ranked::WarmPool, Ranked::Oracle)),
    [](const auto& info) {
        return std::string(poolBackendName(std::get<0>(info.param))) +
            "_" + rankedName(std::get<1>(info.param));
    });

/** LND's selection as it was written over the id-sorted idle list. */
std::vector<ContainerId>
landlordOracle(ContainerPool& pool, MemMb needed_mb)
{
    constexpr double kEps = 1e-12;
    std::vector<Container*> idle = pool.idleContainers();
    std::vector<ContainerId> victims;
    MemMb freed = 0;
    while (freed < needed_mb && !idle.empty()) {
        double delta = std::numeric_limits<double>::infinity();
        for (const Container* c : idle)
            delta = std::min(delta, c->credit() / c->memMb());
        std::vector<Container*> still_solvent;
        std::vector<Container*> insolvent;
        for (Container* c : idle) {
            c->setCredit(c->credit() - delta * c->memMb());
            if (c->credit() <= kEps) {
                c->setCredit(0.0);
                insolvent.push_back(c);
            } else {
                still_solvent.push_back(c);
            }
        }
        std::sort(insolvent.begin(), insolvent.end(),
                  [](const Container* a, const Container* b) {
                      if (a->lastUsed() != b->lastUsed())
                          return a->lastUsed() < b->lastUsed();
                      return a->id() < b->id();
                  });
        for (Container* c : insolvent) {
            if (freed >= needed_mb) {
                still_solvent.push_back(c);
                continue;
            }
            victims.push_back(c->id());
            freed += c->memMb();
        }
        idle = std::move(still_solvent);
    }
    return victims;
}

/** Every live container's (id, credit), ordered by id. */
std::vector<std::pair<ContainerId, double>>
credits(const ContainerPool& pool)
{
    std::vector<std::pair<ContainerId, double>> out;
    pool.forEach([&out](const Container& c) {
        out.emplace_back(c.id(), c.credit());
    });
    std::sort(out.begin(), out.end());
    return out;
}

class LandlordVictimTest : public ::testing::TestWithParam<PoolBackend>
{
};

TEST_P(LandlordVictimTest, PoolWalkEqualsIdSortedOracle)
{
    std::size_t pressure_checks = 0;
    std::size_t multi_victim = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Trace trace = randomTrace(seed);
        LandlordPolicy policy;
        policy.reserveFunctions(trace.functions().size());
        ContainerPool pool(1024.0 * static_cast<MemMb>(2 + seed % 5),
                           GetParam());
        TimeUs now = 0;

        // Run the oracle, restore every credit, run the product: the
        // victims and every container's credit after the call agree.
        auto expectSameVictims = [&](MemMb needed_mb) {
            const auto before = credits(pool);
            const std::vector<ContainerId> expected =
                landlordOracle(pool, needed_mb);
            const auto oracle_after = credits(pool);
            for (const auto& [id, credit] : before)
                pool.get(id)->setCredit(credit);
            const std::vector<ContainerId> actual =
                policy.selectVictims(pool, needed_mb, now);
            EXPECT_EQ(actual, expected)
                << "needed_mb " << needed_mb << " at t=" << now;
            EXPECT_EQ(credits(pool), oracle_after)
                << "needed_mb " << needed_mb << " at t=" << now;
            multi_victim += actual.size() > 1 ? 1 : 0;
            return actual;
        };
        auto evict = [&](ContainerId id) {
            const Container& c = *pool.get(id);
            policy.onEviction(c, pool.countOf(c.function()) == 1, now);
            pool.remove(id);
        };

        const auto& arrivals = trace.invocations();
        const std::size_t stop = arrivals.size() * 2 / 3;
        for (std::size_t i = 0; i < stop; ++i) {
            now = arrivals[i].arrival_us;
            const FunctionSpec& spec = trace.function(arrivals[i].function);
            pool.releaseFinished(now);
            policy.onInvocationArrival(spec, now);
            if (Container* warm = pool.findIdleWarm(spec.id)) {
                warm->startInvocation(now, now + spec.warm_us);
                policy.onWarmStart(*warm, spec, now);
                continue;
            }
            if (!pool.fits(spec.mem_mb)) {
                ++pressure_checks;
                const MemMb short_mb = pool.usedMb() + spec.mem_mb -
                    pool.capacityMb();
                for (ContainerId id : expectSameVictims(short_mb))
                    evict(id);
                if (!pool.fits(spec.mem_mb))
                    continue;  // dropped: busy containers hold the memory
            }
            Container& cold = pool.add(spec, now);
            cold.startInvocation(now, now + spec.cold_us);
            policy.onColdStart(cold, spec, now);
        }

        // Boundary requests against the final, partly busy pool.
        EXPECT_TRUE(expectSameVictims(0).empty());
        EXPECT_TRUE(expectSameVictims(-64).empty());
        expectSameVictims(1);
        expectSameVictims(pool.idleMb() / 3);
        expectSameVictims(pool.idleMb());
        EXPECT_EQ(expectSameVictims(pool.idleMb() + 1).size(),
                  pool.idleCount());
    }
    EXPECT_GT(pressure_checks, 100u);
    EXPECT_GT(multi_victim, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, LandlordVictimTest,
                         ::testing::Values(PoolBackend::Slab,
                                           PoolBackend::ReferenceMap),
                         [](const auto& info) {
                             return std::string(
                                 poolBackendName(info.param));
                         });

}  // namespace
}  // namespace faascache
