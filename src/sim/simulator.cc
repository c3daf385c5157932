#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace faascache {

void
SimulatorConfig::validate() const
{
    if (!(memory_mb > 0)) {
        throw std::invalid_argument(
            "SimulatorConfig: memory_mb must be > 0, got " +
            std::to_string(memory_mb));
    }
    if (memory_sample_interval_us < 0) {
        throw std::invalid_argument(
            "SimulatorConfig: memory_sample_interval_us must be >= 0, "
            "got " +
            std::to_string(memory_sample_interval_us));
    }
    if (background_reclaim_interval_us < 0) {
        throw std::invalid_argument(
            "SimulatorConfig: background_reclaim_interval_us must be "
            ">= 0, got " +
            std::to_string(background_reclaim_interval_us));
    }
    if (background_reclaim_interval_us > 0 &&
        !(background_free_target_mb > 0)) {
        throw std::invalid_argument(
            "SimulatorConfig: background_free_target_mb must be > 0 "
            "when background reclamation is enabled, got " +
            std::to_string(background_free_target_mb));
    }
}

Simulator::Simulator(const Trace& trace,
                     std::unique_ptr<KeepAlivePolicy> policy,
                     SimulatorConfig config)
    : owned_source_(std::make_unique<TraceSource>(trace)),
      source_(owned_source_.get()), functions_(&trace.functions()),
      policy_(std::move(policy)), config_(config),
      // Validate before the pool captures the capacity (its
      // constructor asserts on non-positive memory).
      pool_((config_.validate(), config_.memory_mb), config_.pool_backend)
{
    if (!policy_)
        throw std::invalid_argument("Simulator: null policy");
    if (!trace.validate())
        throw std::invalid_argument("Simulator: invalid trace");
    if (!trace.isSorted())
        throw std::invalid_argument("Simulator: trace not sorted");
    initCommon();
}

Simulator::Simulator(InvocationSource& source,
                     std::unique_ptr<KeepAlivePolicy> policy,
                     SimulatorConfig config)
    : source_(&source), functions_(&source.functions()),
      policy_(std::move(policy)), config_(config),
      pool_((config_.validate(), config_.memory_mb), config_.pool_backend)
{
    if (!policy_)
        throw std::invalid_argument("Simulator: null policy");
    initCommon();
}

void
Simulator::initCommon()
{
    source_->reset();
    result_.policy_name = policy_->name();
    resource_conserving_ = policy_->resourceConserving();
    result_.memory_mb = config_.memory_mb;
    result_.per_function.resize(functions_->size());
    // Allocation hints: size dense per-function tables from the catalog.
    policy_->reserveFunctions(functions_->size());
    pool_.reserve(/*containers=*/256);
    // Registered periodic tasks: both start due at t=0 (a sample of the
    // empty pool, a reclaim pass over it) and re-arm every interval; a
    // non-positive interval disables the schedule entirely.
    sampling_ = PeriodicSchedule(0, config_.memory_sample_interval_us);
    reclaim_ = PeriodicSchedule(0, config_.background_reclaim_interval_us);
}

TimeUs
Simulator::nextArrival()
{
    Invocation inv;
    const bool have = source_->peek(inv);
    assert(have);
    (void)have;
    return inv.arrival_us;
}

void
Simulator::sampleMemory(TimeUs t)
{
    sampling_.catchUp(t, [this](TimeUs due) {
        result_.memory_usage.push_back(MemorySample{due, pool_.usedMb()});
    });
}

void
Simulator::evict(ContainerId id, TimeUs t, bool expired)
{
    Container* c = pool_.get(id);
    assert(c != nullptr);
    assert(c->idle());
    const bool last = pool_.countOf(c->function()) == 1;
    policy_->onEviction(*c, last, t);
    pool_.remove(id);
    if (expired)
        ++result_.expirations;
    else
        ++result_.evictions;
}

void
Simulator::startInvocation(Container& c, TimeUs now, TimeUs finish_us)
{
    c.startInvocation(now, finish_us);
    finishes_.emplace(finish_us, c.id());
}

void
Simulator::advanceTo(TimeUs t)
{
    sampleMemory(t);
    // Release everything due by t first: background reclaim below
    // searches at earlier instants but, like every search, ranks the
    // containers idle in the pool as it stands.
    while (!finishes_.empty() && finishes_.top().first <= t) {
        Container* c = pool_.get(finishes_.top().second);
        assert(c != nullptr && c->busy());
        c->finishInvocation();
        finishes_.pop();
    }

    // Expire leases before performing prewarms: a container released at
    // its expiry must not satisfy the skip-if-already-warm check of a
    // prewarm scheduled for a later instant. A resource-conserving
    // policy promises that expiredContainers() and duePrewarms() return
    // {} and change no state, so skipping both is exact.
    if (!resource_conserving_) {
        for (ContainerId id : policy_->expiredContainers(pool_, t))
            evict(id, t, /*expired=*/true);
    }

    // Background reclamation keeps a free-memory reserve so demand
    // evictions stay off the invocation fast path (§6 future work).
    reclaim_.catchUp(t, [this](TimeUs when) {
        // Signed headroom: after resize() the pool may sit over capacity.
        const MemMb deficit = config_.background_free_target_mb -
                              (pool_.capacityMb() - pool_.usedMb());
        if (deficit <= 0)
            return;
        for (ContainerId id : policy_->selectVictims(pool_, deficit, when)) {
            evict(id, when, /*expired=*/false);
            ++result_.background_reclaims;
        }
    });

    if (resource_conserving_)
        return;
    if (config_.enable_prewarm) {
        for (FunctionId fn : policy_->duePrewarms(t)) {
            const FunctionSpec& spec = (*functions_)[fn];
            // Skip speculative prewarms when a warm container already
            // exists or memory is unavailable; prewarming never evicts.
            if (pool_.findIdleWarm(fn) != nullptr)
                continue;
            if (!pool_.fits(spec.mem_mb))
                continue;
            Container& c = pool_.add(spec, t, /*prewarmed=*/true);
            policy_->onPrewarm(c, spec, t);
            ++result_.prewarms;
        }
    } else {
        policy_->duePrewarms(t);  // drain the schedule regardless
    }
}

void
Simulator::step()
{
    if (config_.cancel != nullptr)
        config_.cancel->throwIfCancelled();
    Invocation inv;
    if (!source_->next(inv))
        throw std::logic_error("Simulator::step: past end of stream");
    // Online cursor-contract enforcement — the streaming analogue of the
    // Trace constructor's validate()/isSorted() pre-checks. last_arrival_
    // starts at 0, which also rejects negative arrivals.
    if (inv.function >= functions_->size())
        throw std::runtime_error(
            "Simulator: source function id " +
            std::to_string(inv.function) + " out of range");
    if (inv.arrival_us < last_arrival_)
        throw std::runtime_error("Simulator: source arrivals out of order");
    checkArrivalTime(inv, "Simulator");
    last_arrival_ = inv.arrival_us;
    const FunctionSpec& spec = (*functions_)[inv.function];
    clock_.advanceTo(inv.arrival_us);
    const TimeUs now_us = clock_.now();
    advanceTo(now_us);

    policy_->onInvocationArrival(spec, now_us);
    FunctionOutcome& outcome = result_.per_function[spec.id];

    if (Container* warm = pool_.findIdleWarm(spec.id)) {
        startInvocation(*warm, now_us, now_us + spec.warm_us);
        policy_->onWarmStart(*warm, spec, now_us);
        ++result_.warm_starts;
        ++outcome.warm;
        result_.actual_exec_us += spec.warm_us;
        result_.baseline_exec_us += spec.warm_us;
        return;
    }

    // Cold path: make room if needed.
    if (!pool_.fits(spec.mem_mb)) {
        // Signed headroom, not the zero-clamped freeMb(): after resize()
        // busy containers may keep the pool over capacity, and victims
        // must also pay back that overshoot before the cold start fits.
        const MemMb headroom = pool_.capacityMb() - pool_.usedMb();
        const MemMb needed = spec.mem_mb - headroom;
        ++result_.eviction_rounds;
        const auto victims = policy_->selectVictims(pool_, needed, now_us);
        MemMb freed = 0;
        for (ContainerId id : victims) {
            const Container* c = pool_.get(id);
            assert(c != nullptr && c->idle());
            freed += c->memMb();
        }
        if (headroom + freed < spec.mem_mb) {
            // Even the policy's best effort cannot make room: the pool
            // is dominated by running containers. Drop the request and
            // spare the victims.
            ++result_.dropped;
            ++outcome.dropped;
            return;
        }
        for (ContainerId id : victims)
            evict(id, now_us, /*expired=*/false);
    }

    Container& fresh = pool_.add(spec, now_us);
    startInvocation(fresh, now_us, now_us + spec.cold_us);
    policy_->onColdStart(fresh, spec, now_us);
    ++result_.cold_starts;
    ++outcome.cold;
    result_.actual_exec_us += spec.cold_us;
    result_.baseline_exec_us += spec.warm_us;
}

SimResult
Simulator::run()
{
    while (!done())
        step();
    sampleMemory(clock_.now());
    return result_;
}

void
Simulator::resize(MemMb new_capacity_mb)
{
    if (new_capacity_mb <= 0)
        throw std::invalid_argument("Simulator::resize: capacity must be > 0");
    pool_.setCapacityMb(new_capacity_mb);
    result_.memory_mb = new_capacity_mb;
    if (pool_.usedMb() <= new_capacity_mb)
        return;
    // Cascade deflation: shrink the keep-alive pool first by evicting
    // idle containers; busy containers are allowed to linger over
    // capacity until they finish.
    const MemMb excess = pool_.usedMb() - new_capacity_mb;
    const auto victims = policy_->selectVictims(pool_, excess, clock_.now());
    for (ContainerId id : victims) {
        if (pool_.usedMb() <= new_capacity_mb)
            break;
        evict(id, clock_.now(), /*expired=*/false);
    }
}

SimResult
simulateTrace(const Trace& trace, std::unique_ptr<KeepAlivePolicy> policy,
              const SimulatorConfig& config)
{
    Simulator sim(trace, std::move(policy), config);
    return sim.run();
}

SimResult
simulateSource(InvocationSource& source,
               std::unique_ptr<KeepAlivePolicy> policy,
               const SimulatorConfig& config)
{
    Simulator sim(source, std::move(policy), config);
    return sim.run();
}

}  // namespace faascache
