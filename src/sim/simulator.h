/**
 * @file
 * The trace-driven keep-alive simulator (paper §6, "Keep-alive
 * Simulator"), a C++ reimplementation of the paper's Python
 * discrete-event simulator.
 *
 * For each invocation, in arrival order:
 *  1. running containers whose invocations completed become idle (the
 *     simulator's own finish schedule releases them, see
 *     scheduledFinishes());
 *  2. containers whose keep-alive lease expired are terminated;
 *  3. prewarms requested by the policy (HIST) are performed if memory
 *     allows and no idle warm container already exists (steps 2 and 3
 *     are skipped under a resourceConserving() policy, which promises
 *     they do nothing);
 *  4. the policy is notified of the arrival;
 *  5. a warm idle container, if any, serves the invocation (warm start);
 *     otherwise the policy selects idle victims to free memory and a new
 *     container cold-starts; if even evicting every idle container
 *     cannot make room, the request is dropped.
 *
 * The simulator exposes a step API plus capacity resizing so the elastic
 * provisioning controller (§5.2) can drive it period by period.
 */
#ifndef FAASCACHE_SIM_SIMULATOR_H_
#define FAASCACHE_SIM_SIMULATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/container_pool.h"
#include "core/keepalive_policy.h"
#include "engine/event_engine.h"
#include "engine/periodic_schedule.h"
#include "sim/sim_result.h"
#include "trace/invocation_source.h"
#include "trace/trace.h"
#include "util/cancellation.h"

namespace faascache {

/** Simulator knobs. */
struct SimulatorConfig
{
    /** Keep-alive cache (container pool) capacity, MB. */
    MemMb memory_mb = 32 * 1024.0;

    /**
     * Container-pool storage backend. Slab (default) is the dense
     * allocation-free arena; ReferenceMap is the original hash-map pool
     * kept as a differential-testing oracle. Observably identical.
     */
    PoolBackend pool_backend = PoolBackend::Slab;

    /** Interval between memory-usage samples; 0 disables sampling. */
    TimeUs memory_sample_interval_us = kMinute;

    /** Honor policy prewarm requests (HIST). */
    bool enable_prewarm = true;

    /**
     * Background reclamation (paper §6 future work: a kswapd-like
     * thread that keeps free memory above a threshold so eviction moves
     * off the invocation critical path). 0 disables it.
     */
    TimeUs background_reclaim_interval_us = 0;

    /** Free-memory target the background reclaimer maintains, MB. */
    MemMb background_free_target_mb = 1000.0;

    /**
     * Cooperative cancellation (non-owning; may be null). Checked at
     * every step() so a watchdog or signal handler can unwind a
     * long-running replay promptly; a cancelled simulation throws
     * CancelledError out of step()/run(). Does not perturb results:
     * a run that is never cancelled is byte-identical with or without
     * a token installed.
     */
    const CancellationToken* cancel = nullptr;

    /**
     * Check invariants (positive capacity, non-negative intervals).
     * @throws std::invalid_argument with a descriptive message.
     */
    void validate() const;
};

/** Trace-driven keep-alive simulator. */
class Simulator
{
  public:
    /**
     * @param trace  Workload to replay; must be sorted and valid.
     * @param policy Keep-alive policy under test (owned).
     * @param config Simulator knobs.
     */
    Simulator(const Trace& trace, std::unique_ptr<KeepAlivePolicy> policy,
              SimulatorConfig config);

    /**
     * Streaming variant: replay from a cursor instead of a materialized
     * trace. The source must outlive the simulator; it is reset() at
     * construction and the cursor contract (sorted arrivals, valid
     * function ids) is enforced online as invocations are consumed.
     */
    Simulator(InvocationSource& source,
              std::unique_ptr<KeepAlivePolicy> policy,
              SimulatorConfig config);

    /** Replay the remaining trace to completion and return the result. */
    SimResult run();

    /** Process the next invocation. @pre !done(). */
    void step();

    /** Whether the whole trace has been replayed. */
    bool done()
    {
        Invocation tmp;
        return !source_->peek(tmp);
    }

    /** Arrival time of the last processed invocation (0 initially). */
    TimeUs now() const { return clock_.now(); }

    /** Arrival time of the next invocation. @pre !done(). */
    TimeUs nextArrival();

    /**
     * Elastic vertical scaling: change the pool capacity. Shrinking
     * first evicts idle containers (cascade deflation); busy containers
     * may keep the pool transiently over capacity.
     */
    void resize(MemMb new_capacity_mb);

    /** Results accumulated so far (running totals). */
    const SimResult& result() const { return result_; }

    const ContainerPool& pool() const { return pool_; }
    const KeepAlivePolicy& policy() const { return *policy_; }

    /**
     * Entries in the finish schedule: always equal to the number of
     * busy containers in pool().
     */
    std::size_t scheduledFinishes() const { return finishes_.size(); }

  private:
    /** Advance housekeeping (release, prewarm, expire) to time t. */
    void advanceTo(TimeUs t);

    /** Start an invocation on `c` and schedule its release. */
    void startInvocation(Container& c, TimeUs now, TimeUs finish_us);

    /** Terminate a container and notify the policy. */
    void evict(ContainerId id, TimeUs t, bool expired);

    /** Record memory-usage samples up to time t. */
    void sampleMemory(TimeUs t);

    /** Shared tail of both constructors (result/policy/pool sizing). */
    void initCommon();

    /** Set only by the Trace convenience constructor. */
    std::unique_ptr<TraceSource> owned_source_;
    InvocationSource* source_;
    const std::vector<FunctionSpec>* functions_;
    std::unique_ptr<KeepAlivePolicy> policy_;
    SimulatorConfig config_;
    ContainerPool pool_;
    SimResult result_;

    /** policy_->resourceConserving(), read once: when true, advanceTo
     *  skips the expiry and prewarm calls. */
    bool resource_conserving_ = false;

    /** Arrival of the last consumed invocation (online sorted check). */
    TimeUs last_arrival_ = 0;

    /** Engine clock: the arrival instant being processed. */
    SimClock clock_;

    /** Registered periodic tasks (engine/periodic_schedule.h). */
    PeriodicSchedule sampling_;
    PeriodicSchedule reclaim_;

    /**
     * Finish schedule: a (busyUntil, id) min-heap with exactly one entry
     * per busy container. startInvocation() is the only way a container
     * turns busy and advanceTo() pops due entries to release them; evict()
     * only removes idle containers, so no entry ever goes stale. Release
     * order is unobservable: the pool keeps idle containers in a strict
     * total order, and Greedy-Dual, which reads releases from the pool's
     * log, ranks what it reads by a strict total order too.
     */
    using FinishEntry = std::pair<TimeUs, ContainerId>;
    std::priority_queue<FinishEntry, std::vector<FinishEntry>,
                        std::greater<>>
        finishes_;
};

/** Convenience: construct, run, and return the result. */
SimResult simulateTrace(const Trace& trace,
                        std::unique_ptr<KeepAlivePolicy> policy,
                        const SimulatorConfig& config);

/** Convenience: replay a streaming source to completion. */
SimResult simulateSource(InvocationSource& source,
                         std::unique_ptr<KeepAlivePolicy> policy,
                         const SimulatorConfig& config);

}  // namespace faascache

#endif  // FAASCACHE_SIM_SIMULATOR_H_
