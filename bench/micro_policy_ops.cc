/**
 * @file
 * Micro-benchmarks of the keep-alive fast path and slow path: per
 * invocation bookkeeping, warm-container lookup, and victim selection,
 * for every policy. The paper keeps the ContainerPool unsorted on the
 * fast path and ranks candidates only on evictions (§6); these
 * benchmarks quantify that trade-off. Greedy-Dual ranks through its
 * lazy-deletion heaps; the other ranked policies select by a heap built
 * over the idle containers and popped only until the request is covered
 * (KeepAlivePolicy::selectAscending), so BM_VictimSelection grows
 * linearly, not as n log n, with the idle pool.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/container_pool.h"
#include "core/policy_factory.h"
#include "util/rng.h"

using namespace faascache;

namespace {

FunctionSpec
specOf(FunctionId id)
{
    return makeFunction(id, "fn" + std::to_string(id),
                        64.0 + static_cast<double>(id % 16) * 32.0,
                        fromMillis(100),
                        fromMillis(100 + 50 * (id % 10)));
}

/** Fill a pool with idle containers of `num_functions` functions. */
void
fillPool(ContainerPool& pool, KeepAlivePolicy& policy,
         std::size_t num_functions)
{
    for (std::size_t i = 0; i < num_functions; ++i) {
        const FunctionSpec spec = specOf(static_cast<FunctionId>(i));
        if (!pool.fits(spec.mem_mb))
            break;
        policy.onInvocationArrival(spec, static_cast<TimeUs>(i) * kSecond);
        Container& c = pool.add(spec, static_cast<TimeUs>(i) * kSecond);
        c.startInvocation(static_cast<TimeUs>(i) * kSecond,
                          static_cast<TimeUs>(i) * kSecond + spec.warm_us);
        policy.onColdStart(c, spec, static_cast<TimeUs>(i) * kSecond);
        c.finishInvocation();
    }
}

PolicyKind
kindFromIndex(std::int64_t index)
{
    return allPolicyKinds().at(static_cast<std::size_t>(index));
}

void
BM_WarmLookupAndTouch(benchmark::State& state)
{
    const PolicyKind kind = kindFromIndex(state.range(0));
    const auto num_functions = static_cast<std::size_t>(state.range(1));
    ContainerPool pool(1e9);
    auto policy = makePolicy(kind);
    fillPool(pool, *policy, num_functions);

    Rng rng(7);
    TimeUs now = static_cast<TimeUs>(num_functions) * kSecond;
    for (auto _ : state) {
        const auto fn = static_cast<FunctionId>(
            rng.uniformInt(num_functions));
        const FunctionSpec spec = specOf(fn);
        now += kMillisecond;
        policy->onInvocationArrival(spec, now);
        Container* warm = pool.findIdleWarm(fn);
        benchmark::DoNotOptimize(warm);
        if (warm != nullptr) {
            warm->startInvocation(now, now + spec.warm_us);
            policy->onWarmStart(*warm, spec, now);
            warm->finishInvocation();
        }
    }
    state.SetLabel(policyKindName(kind));
}

void
BM_VictimSelection(benchmark::State& state)
{
    const PolicyKind kind = kindFromIndex(state.range(0));
    const auto num_functions = static_cast<std::size_t>(state.range(1));
    ContainerPool pool(1e9);
    auto policy = makePolicy(kind);
    fillPool(pool, *policy, num_functions);

    const TimeUs now = static_cast<TimeUs>(num_functions + 1) * kSecond;
    for (auto _ : state) {
        auto victims = policy->selectVictims(pool, 256.0, now);
        benchmark::DoNotOptimize(victims);
    }
    state.SetLabel(policyKindName(kind));
}

void
policyArgs(benchmark::internal::Benchmark* bench)
{
    for (std::int64_t kind = 0;
         kind < static_cast<std::int64_t>(allPolicyKinds().size()); ++kind) {
        bench->Args({kind, 256});
        bench->Args({kind, 4096});
    }
}

BENCHMARK(BM_WarmLookupAndTouch)->Apply(policyArgs);
BENCHMARK(BM_VictimSelection)->Apply(policyArgs);

// ---------------------------------------------------------------------
// Pool-backend benchmarks (PR 5): the slab arena vs the reference
// hash-map pool, at pool sizes far beyond what the policy benches
// above use. Containers per function is deliberately high (64) so the
// backends' per-function bookkeeping — intrusive idle lists vs vector
// scan-and-erase — dominates, which is the regime the platform model
// hits under load.

constexpr std::int64_t kContainersPerFunction = 64;

PoolBackend
backendFromIndex(std::int64_t index)
{
    return index == 0 ? PoolBackend::Slab : PoolBackend::ReferenceMap;
}

/** Fill `pool` with `num_containers` idle containers spread over
 *  num_containers / kContainersPerFunction functions. */
std::vector<ContainerId>
fillPoolDense(ContainerPool& pool, std::size_t num_containers)
{
    const std::size_t num_functions =
        std::max<std::size_t>(1, num_containers / kContainersPerFunction);
    std::vector<ContainerId> ids;
    ids.reserve(num_containers);
    for (std::size_t i = 0; i < num_containers; ++i) {
        const FunctionSpec spec =
            specOf(static_cast<FunctionId>(i % num_functions));
        Container& c = pool.add(spec, static_cast<TimeUs>(i));
        ids.push_back(c.id());
    }
    return ids;
}

/**
 * Steady-state add/remove churn: each iteration evicts one tracked
 * (random) container and admits a fresh one, holding the pool at a
 * constant size. Slab: O(1) intrusive unlink + O(1) slot reuse, no
 * allocation. Reference: a linear scan of the per-function vector, a
 * hash-map erase, and a heap free, then an allocation on re-add.
 */
void
BM_PoolChurn(benchmark::State& state)
{
    const PoolBackend backend = backendFromIndex(state.range(0));
    const auto num_containers = static_cast<std::size_t>(state.range(1));
    const std::size_t num_functions =
        std::max<std::size_t>(1, num_containers / kContainersPerFunction);
    ContainerPool pool(1e12, backend);
    pool.reserve(num_containers);
    std::vector<ContainerId> ids = fillPoolDense(pool, num_containers);

    Rng rng(13);
    TimeUs now = static_cast<TimeUs>(num_containers);
    for (auto _ : state) {
        const std::size_t pick = rng.uniformInt(ids.size());
        now += 1;
        pool.remove(ids[pick]);
        const auto add_fn =
            static_cast<FunctionId>(rng.uniformInt(num_functions));
        Container& fresh = pool.add(specOf(add_fn), now);
        ids[pick] = fresh.id();
        benchmark::DoNotOptimize(&fresh);
    }
    state.SetLabel(poolBackendName(backend));
    state.SetItemsProcessed(state.iterations());
}

/**
 * Busy/idle lifecycle churn: start a batch of invocations and release
 * them via releaseFinished(). Slab walks the busy list only; the
 * reference pool re-scans every container per release pass. This is
 * the pool-level release path only: Simulator releases from its own
 * (busyUntil, id) finish schedule and Server in its Finish events.
 */
void
BM_PoolLifecycle(benchmark::State& state)
{
    const PoolBackend backend = backendFromIndex(state.range(0));
    const auto num_containers = static_cast<std::size_t>(state.range(1));
    ContainerPool pool(1e12, backend);
    pool.reserve(num_containers);
    const std::vector<ContainerId> ids = fillPoolDense(pool, num_containers);

    Rng rng(17);
    constexpr std::size_t kBatch = 64;
    TimeUs now = static_cast<TimeUs>(num_containers);
    for (auto _ : state) {
        for (std::size_t i = 0; i < kBatch; ++i) {
            Container* c = pool.get(ids[rng.uniformInt(ids.size())]);
            if (c != nullptr && c->idle())
                c->startInvocation(now, now + 1);
        }
        now += 2;
        auto released = pool.releaseFinished(now);
        benchmark::DoNotOptimize(released);
    }
    state.SetLabel(poolBackendName(backend));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kBatch));
}

/**
 * Victim selection against a big pool: the GD lazy heap (and its dense
 * slot-keyed live table) scanning a slab vs reference pool.
 */
void
BM_PoolVictimSelection(benchmark::State& state)
{
    const PoolBackend backend = backendFromIndex(state.range(0));
    const auto num_containers = static_cast<std::size_t>(state.range(1));
    ContainerPool pool(1e12, backend);
    auto policy = makePolicy(PolicyKind::GreedyDual);
    const std::size_t num_functions =
        std::max<std::size_t>(1, num_containers / kContainersPerFunction);
    policy->reserveFunctions(num_functions);
    pool.reserve(num_containers);
    for (std::size_t i = 0; i < num_containers; ++i) {
        const FunctionSpec spec =
            specOf(static_cast<FunctionId>(i % num_functions));
        const auto now = static_cast<TimeUs>(i);
        policy->onInvocationArrival(spec, now);
        Container& c = pool.add(spec, now);
        c.startInvocation(now, now + spec.warm_us);
        policy->onColdStart(c, spec, now);
        c.finishInvocation();
    }

    const TimeUs now = static_cast<TimeUs>(num_containers + 1);
    for (auto _ : state) {
        auto victims = policy->selectVictims(pool, 512.0, now);
        benchmark::DoNotOptimize(victims);
    }
    state.SetLabel(poolBackendName(backend));
}

void
poolArgs(benchmark::internal::Benchmark* bench)
{
    for (std::int64_t backend : {0, 1}) {
        for (std::int64_t size : {1'000, 10'000, 100'000})
            bench->Args({backend, size});
    }
}

BENCHMARK(BM_PoolChurn)->Apply(poolArgs);
BENCHMARK(BM_PoolLifecycle)->Apply(poolArgs);
BENCHMARK(BM_PoolVictimSelection)->Apply(poolArgs);

}  // namespace

BENCHMARK_MAIN();
