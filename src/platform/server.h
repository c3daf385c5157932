/**
 * @file
 * Discrete-event model of a FaaS invoker server (paper §7.2).
 *
 * The model captures the mechanisms behind the paper's OpenWhisk
 * results: a finite number of cores, a finite container-pool memory, a
 * FIFO request buffer with capacity and waiting-time limits (OpenWhisk
 * "buffers and eventually drops requests if it cannot fulfill them"),
 * and a pluggable keep-alive policy governing the container pool.
 * Cold starts hold a core and memory for the full initialization plus
 * execution time, so a burst of cold starts inflates system load, grows
 * the queue, and causes drops — the feedback loop the paper observes
 * with vanilla OpenWhisk.
 *
 * Running the same trace with a TtlPolicy models vanilla OpenWhisk;
 * running it with a GreedyDualPolicy models FaasCache.
 *
 * Beyond the paper, the server understands injected faults
 * (fault_injection.h): transient container-spawn failures, cold-start
 * stragglers, memory-reclaim stalls, and crashes that drain running
 * work, flush the container pool, and take the server offline until a
 * restart. One driver, two callers:
 *  - begin()/offer()/advanceTo()/finish() let an external dispatcher —
 *    the cluster front end — feed invocations incrementally, observe
 *    health, and re-dispatch the fallout of a crash to other servers;
 *  - run() replays a whole stream standalone through that same loop
 *    (crashes in the attached injector's plan are self-scheduled; work
 *    lost to a crash is accounted as lost on this server).
 */
#ifndef FAASCACHE_PLATFORM_SERVER_H_
#define FAASCACHE_PLATFORM_SERVER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/container_pool.h"
#include "core/keepalive_policy.h"
#include "engine/event_engine.h"
#include "platform/fault_injection.h"
#include "platform/overload/admission_controller.h"
#include "platform/overload/brownout.h"
#include "platform/overload/overload.h"
#include "sim/sim_result.h"
#include "trace/invocation_source.h"
#include "trace/trace.h"
#include "util/cancellation.h"
#include "util/function_table.h"
#include "util/stats.h"

namespace faascache {

/**
 * What a scheduled platform event represents. Crashes ride the engine's
 * Failure tie-break lane (engine/event_engine.h); everything else is
 * Normal-lane FIFO traffic.
 */
enum class EventKind
{
    Arrival,      ///< a request arrived (payload: invocation index)
    Finish,       ///< an invocation completed (payload: container id)
    InitDone,     ///< a cold start finished initializing (payload: id)
    Maintenance,  ///< periodic expiry/prewarm/queue housekeeping
    Retry,        ///< re-drain the queue after a spawn-failure holdoff
    Crash,        ///< injected server crash (payload: crash-list index)
    Restart,      ///< crashed server rejoins, cold
    OomKill,      ///< injected OOM kill (payload: oom-list index)
};

/** One scheduled platform event. */
using ServerEvent = EngineEvent<EventKind>;

/**
 * Platform hot-path backend (DESIGN.md §4f). Dense is the production
 * interior: queued requests live in a recycled-slot arena threaded as
 * an intrusive FIFO (the drain walks and unlinks in place instead of
 * rebuilding a deque per event), and run() streams arrivals through
 * the incremental driver (begin/advanceTo/offer/finish), so the heap
 * never carries the O(trace) arrival load.
 * Reference is the original deque-rebuild + arrival-heap path, kept
 * alive as a differential-testing oracle exactly like
 * PoolBackend::ReferenceMap. The two are observably identical —
 * byte-identical PlatformResult/ClusterResult — which
 * tests/platform_differential_test.cc enforces.
 */
enum class PlatformBackend : std::uint8_t
{
    Dense,      ///< arena request queue + streamed arrivals (default)
    Reference,  ///< original per-event deque rebuild + arrival heap
};

/** Lower-case display name ("dense", "reference"). */
const char* platformBackendName(PlatformBackend backend);

/** Invoker server parameters. */
struct ServerConfig
{
    /** Simultaneously running invocations (CPU slots). */
    int cores = 8;

    /** Container pool memory, MB. */
    MemMb memory_mb = 4096.0;

    /**
     * Container-pool storage backend. Slab (default) is the dense
     * allocation-free arena; ReferenceMap is the original hash-map pool
     * kept as a differential-testing oracle. Observably identical.
     */
    PoolBackend pool_backend = PoolBackend::Slab;

    /**
     * Platform hot-path backend (see PlatformBackend). Dense (default)
     * is the arena/batched interior; Reference is the original path
     * kept as a differential-testing oracle. Observably identical.
     */
    PlatformBackend platform_backend = PlatformBackend::Dense;

    /** Request buffer capacity; arrivals beyond this are dropped. */
    std::size_t queue_capacity = 2048;

    /** Maximum queueing delay before a buffered request is dropped. */
    TimeUs queue_timeout_us = 30 * kSecond;

    /**
     * Period of expiry/prewarm housekeeping. Ticks fall on the grid
     * k * maintenance_interval_us up to the run's horizon (finish()'s
     * argument; last arrival + queue_timeout_us for run()). Each tick
     * schedules the next as an ordinary event, so a tick and a runtime
     * event at the same instant are delivered in scheduling (FIFO)
     * order under every driver. The Dense backend skips the ticks of
     * a quiescent server (empty event heap and request queue) whose
     * policy is resourceConserving(), while no auditor is attached and
     * brownout is off: such ticks provably do nothing, so results are
     * byte-identical to firing them (DESIGN.md §4f). The Reference
     * backend fires every tick.
     */
    TimeUs maintenance_interval_us = 10 * kSecond;

    /** Honor policy prewarm requests (HIST). */
    bool enable_prewarm = true;

    /**
     * CPU slots a cold start occupies during its initialization phase
     * (container creation and runtime init are CPU-heavy: dockerd,
     * cgroups, interpreter startup). 1 models init as ordinary
     * execution; 2 reproduces the platform-load amplification the paper
     * observes, where cold-start storms drive OpenWhisk into overload.
     */
    int cold_start_cpu_slots = 1;

    /**
     * Overload control: CoDel-style adaptive admission and cold-start
     * brownout (platform/overload/overload.h). Both default off, in
     * which case behaviour and results are identical to a server
     * without the subsystem.
     */
    OverloadConfig overload;

    /**
     * Cooperative cancellation (non-owning; may be null). Checked once
     * per processed event in run(), so a watchdog or signal handler can
     * unwind a long replay promptly (CancelledError propagates out of
     * run()). Never perturbs the results of a run that completes.
     */
    const CancellationToken* cancel = nullptr;

    /**
     * Runtime invariant auditor (util/audit.h; non-owning, may be
     * null). When attached and enabled, the server verifies request
     * conservation per queue drain and at end of run, container
     * state-machine legality on every busy/idle transition, event
     * delivery order, and the container pool's structural invariants at
     * every maintenance tick. Null (or AuditMode::Off) costs nothing
     * and leaves results byte-identical. Like `cancel`, never encoded
     * in checkpoint codecs.
     */
    Auditor* audit = nullptr;

    /**
     * Check invariants (positive cores/memory/capacity/periods,
     * cold_start_cpu_slots in [1, cores], overload knobs in range).
     * @throws std::invalid_argument with a descriptive message.
     */
    void validate() const;
};

/** Outcome of a platform run. */
struct PlatformResult
{
    std::string policy_name;
    ServerConfig config;

    std::int64_t warm_starts = 0;
    std::int64_t cold_starts = 0;
    std::int64_t dropped_queue_full = 0;
    std::int64_t dropped_timeout = 0;
    std::int64_t dropped_oversize = 0;
    std::int64_t evictions = 0;
    std::int64_t expirations = 0;
    std::int64_t prewarms = 0;

    /** Fault-injection accounting (all zero without a FaultPlan). */
    RobustnessCounters robustness;

    /** Overload-control accounting (all zero with overload off). */
    OverloadCounters overload;

    /**
     * Last event time at which the request queue held at least one
     * core's worth of backlog — the congestion watermark behind the
     * time-to-recovery metric of bench/fig_overload (0 = the queue
     * never backed up).
     */
    TimeUs last_congested_us = 0;

    /** One function's accounting on this server. */
    struct FunctionRecord
    {
        FunctionId function = kInvalidFunction;
        /** Warm/cold/dropped; never all zero. */
        FunctionOutcome outcome;
        /** Sum of the function's latencies, seconds (for means). */
        double latency_sum_sec = 0.0;

        friend bool operator==(const FunctionRecord&,
                               const FunctionRecord&) = default;
    };

    /** Functions in the run's catalog (ids are below it). */
    std::size_t catalog_size = 0;

    /**
     * Per-function accounting, sparse: one record per function this
     * server resolved at least one request of (non-zero outcome), in
     * ascending id order. Every other catalog function has a zero
     * outcome and a zero latency sum. A fleet server resolves a thin
     * slice of the catalog, so its result holds that slice, not one
     * row per catalog function; the checkpoint codec still writes the
     * catalog-wide rows (DESIGN.md §4d).
     */
    std::vector<FunctionRecord> function_records;

    /** User-visible latency (queue wait + execution) per served
     *  invocation, seconds, in completion order. */
    std::vector<double> latencies_sec;

    /**
     * Warm/cold/dropped of `function` (zero if it has no record).
     * @throws std::out_of_range if function >= catalog_size.
     */
    FunctionOutcome outcomeOf(FunctionId function) const;

    /**
     * Sum of `function`'s latencies, seconds (0 if it has no record).
     * @throws std::out_of_range if function >= catalog_size.
     */
    double latencySumOf(FunctionId function) const;

    /** Invocations that completed on this server. */
    std::int64_t served() const { return warm_starts + cold_starts; }

    /** Requests this server rejected or lost while up or down. */
    std::int64_t dropped() const
    {
        return dropped_queue_full + dropped_timeout + dropped_oversize +
            robustness.dropped_unavailable + overload.admission_shed +
            overload.brownout_denied_cold;
    }

    /** Requests this server definitively resolved (standalone runs
     *  additionally lose robustness.crash_aborted mid-flight). */
    std::int64_t total() const
    {
        return served() + dropped() + robustness.crash_aborted;
    }

    double coldStartPercent() const;
    double dropPercent() const;

    /** Mean user-visible latency, seconds. */
    double meanLatencySec() const;

    /** Mean latency of one function, seconds (0 if never served). */
    double meanLatencySecOf(FunctionId function) const;

    /** Latency distribution summary, seconds. */
    Summary latencySummary() const { return summarize(latencies_sec); }

  private:
    /** `function`'s record, or null; throws like outcomeOf(). */
    const FunctionRecord* recordOf(FunctionId function) const;
};

/** FaaS invoker server model. */
class Server
{
  public:
    /**
     * One request spilled by a crash or OOM kill: its position in the
     * arrival stream plus the invocation itself, so a streaming front
     * end can re-dispatch it without random access into a materialized
     * trace.
     */
    struct SpilledRequest
    {
        std::size_t invocation_index = 0;
        Invocation inv;
    };

    /** Work spilled by a crash, for the cluster to re-dispatch. */
    struct CrashFallout
    {
        /** Requests that were running (now aborted), by stream index. */
        std::vector<SpilledRequest> aborted;

        /** Requests that were queued (now flushed). */
        std::vector<SpilledRequest> flushed_queue;
    };

    /**
     * @param policy Keep-alive policy governing the container pool.
     * @param config Server parameters (validated here).
     */
    Server(std::unique_ptr<KeepAlivePolicy> policy, ServerConfig config);

    /**
     * Attach a fault injector (non-owning; must outlive the server).
     * Spawn failures, stragglers and reclaim stalls apply under every
     * driver. run() also self-schedules the injector's crashes and OOM
     * kills; begin() does not, leaving them to the external dispatcher.
     */
    void setFaultInjector(FaultInjector* injector) { injector_ = injector; }

    /**
     * Replay a trace to completion and return the accounting.
     *
     * The container pool and policy state survive across calls: running
     * a second trace models a server that is already warm (counters are
     * reset per run). Use a fresh Server for independent experiments.
     */
    PlatformResult run(const Trace& trace);

    /**
     * Replay an arbitrary invocation stream to completion (DESIGN.md
     * §4h). The Dense backend is a loop over the incremental API:
     * begin(), the injector's crashes and OOM kills on the Failure
     * lane, then advanceTo(t) + offer() per arrival, and finally
     * finish(last arrival + queue_timeout_us), or finish(0) for an
     * empty source. It consumes the source as a cursor, so peak memory
     * stays O(catalog + pending work) regardless of stream length.
     * Arrivals win every timestamp tie: each is offered before the
     * events of its instant are settled. The Reference backend
     * preschedules every arrival and therefore materializes the source
     * first. Both produce a PlatformResult byte-identical to run(Trace)
     * over the equivalent trace.
     */
    PlatformResult run(InvocationSource& source);

    /**
     * @name Incremental driving (cluster front end)
     * begin() starts a run without scheduling any arrivals; the
     * dispatcher then calls advanceTo(t) to settle internal events
     * strictly before t, offer()s arrivals, and finally finish()es the
     * run.
     * @{
     */

    /**
     * Start an externally driven run: the dispatcher streams
     * (index, invocation) pairs through offer(), so no trace is bound.
     * @param functions Function catalog (non-owning; must outlive the
     *        run). Dense ids, like a Trace catalog.
     * @param invocation_hint Expected stream length (allocation sizing
     *        only; an upper bound is fine and never changes results).
     */
    void begin(const std::vector<FunctionSpec>& functions,
               std::size_t invocation_hint);

    /**
     * Hand one invocation to this server at time `now` (its internal
     * events must already be advanced to `now`).
     * @param invocation_index The dispatcher's stream index, reported
     *        back in crash fallout.
     * @param redispatched The invocation was failed over after a crash
     *        elsewhere; user-visible latency is anchored at its
     *        original trace arrival and a cold start for it counts as
     *        crash-induced.
     * @return False when the request was dropped on arrival (queue
     *         full, oversize, or server down).
     */
    bool offer(std::size_t invocation_index, const Invocation& inv,
               TimeUs now, bool redispatched = false);

    /** Process internal events with time strictly before `now`. */
    void advanceTo(TimeUs now);

    /**
     * Time of the earliest pending internal event, or the largest
     * TimeUs when none is pending: advanceTo(t) does nothing for every
     * t <= nextEventTime().
     */
    TimeUs nextEventTime() const
    {
        return events_.empty() ? std::numeric_limits<TimeUs>::max()
                               : events_.nextTime();
    }

    /**
     * Drain all remaining events and return the accounting.
     * @param horizon_us End of the observation window: no maintenance
     *        tick fires past it (one already armed beyond it is
     *        dropped), and open downtime is charged up to it.
     */
    PlatformResult finish(TimeUs horizon_us);
    /** @} */

    /**
     * @name Health and failure handling
     * @{
     */

    /**
     * Crash now: abort running invocations (their warm/cold accounting
     * is rolled back), flush the container pool, clear the queue, and
     * go offline. No-op (empty fallout) if already down.
     *
     * The caller decides the fallout's fate: the cluster re-dispatches
     * it; run() accounts it as lost on this server.
     */
    CrashFallout crash(TimeUs now);

    /** Rejoin after a crash, with a cold (empty) container pool. */
    void restart(TimeUs now);

    /**
     * Memory-pressure OOM kill: the kernel kills the fattest busy
     * container (most memory, ties to the lowest id). The victim's
     * start accounting is rolled back exactly like a crash abort and
     * the container is destroyed; queued work is untouched.
     * @return The aborted request (for the cluster to re-dispatch), or
     *         nullopt when the server is down or no container is busy.
     */
    std::optional<SpilledRequest> oomKill(TimeUs now);

    bool isDown() const { return down_; }

    /** Buffered (not yet running) requests — the load-shedding and
     *  health signal the cluster front end reads. */
    std::size_t queueDepth() const
    {
        return config_.platform_backend == PlatformBackend::Reference
            ? queue_.size()
            : queue_size_;
    }

    /** Occupied CPU slots. */
    int runningCount() const { return running_; }

    /** Maintenance passes run on a live server this run (parked and
     *  down-time ticks run none). */
    std::int64_t maintenanceTicks() const { return maintenance_ticks_; }

    /**
     * @name Overload signals (cluster front end)
     * Monotonic within one run; the front end diffs successive reads to
     * drive the per-server circuit breaker.
     * @{
     */

    /** Transient container-spawn failures so far. */
    std::int64_t spawnFailureCount() const
    {
        return result_.robustness.spawn_failures;
    }

    /** Successful container spawns (cold starts that got a container)
     *  so far; unlike cold_starts this is never rolled back. */
    std::int64_t spawnSuccessCount() const { return spawn_successes_; }

    /** Requests dropped on queue timeout so far. */
    std::int64_t queueTimeoutDropCount() const
    {
        return result_.dropped_timeout;
    }

    /** Warm starts so far (a liveness signal: the server is making
     *  progress even if cold spawns are failing). */
    std::int64_t warmStartCount() const { return result_.warm_starts; }

    /** Cold-start brownout currently engaged? */
    bool brownedOut() const { return brownout_.active(); }
    /** @} */

    /** Engine clock: time of the last internally processed event. */
    TimeUs now() const { return clock_.now(); }
    /** @} */

  private:
    struct PendingRequest
    {
        std::size_t invocation_index = 0;

        /** The invocation itself: carried with the request so queue
         *  processing never needs random access into a trace. */
        Invocation inv;

        /** Queue-entry time; anchors the queue-timeout check. */
        TimeUs enqueued_us = 0;

        /** Latency anchor: original trace arrival for failed-over
         *  requests, enqueued_us otherwise. */
        TimeUs latency_anchor_us = 0;

        /** Spawn-failure holdoff: not dispatchable before this. */
        TimeUs not_before_us = 0;

        bool redispatched = false;
    };

    /** What the server knows about a running invocation. */
    struct Inflight
    {
        std::size_t invocation_index = 0;

        /** Carried copy (see PendingRequest::inv): crash/OOM spill and
         *  accounting rollback read it instead of a bound trace. */
        Invocation inv;

        TimeUs latency_anchor_us = 0;
        bool cold = false;
        bool redispatched = false;

        /** Extra CPU slots held beyond the base core (a cold start in
         *  its init phase holds cold_start_cpu_slots - 1 more; zeroed
         *  at InitDone). Lets an abort release exactly what it holds. */
        int extra_slots = 0;
    };

    /**
     * One slot of the dense in-flight table, indexed by the running
     * container's ContainerPool slot (Container::poolSlot()). The
     * stored container id validates the entry: slots are recycled, so
     * an entry only belongs to container `c` while `id == c.id()`.
     * kInvalidContainer marks a free slot.
     */
    struct InflightEntry
    {
        ContainerId id = kInvalidContainer;
        Inflight data;
    };

    enum class Dispatch
    {
        Started,        ///< the invocation is running
        Blocked,        ///< no core or no reclaimable memory; keep queued
        SpawnFailed,    ///< transient spawn failure; retry after holdoff
        BrownoutDenied, ///< cold path denied while browned out; dropped
    };

    /** Attempt to start `request` right now. */
    Dispatch tryDispatch(const PendingRequest& request, TimeUs now);

    /** Dispatch queued requests FIFO until blocked; drop timed-out
     *  entries at the head. Branches to the backend's drain. */
    void drainQueue(TimeUs now);

    /** Original drain: pops into a freshly built deque per call. */
    void drainQueueReference(TimeUs now);

    /** Dense drain: walks the intrusive request list in place,
     *  unlinking dispatched/dropped nodes — identical scan order and
     *  side effects to drainQueueReference, zero rebuild traffic. */
    void drainQueueDense(TimeUs now);

    /** Expire leases and perform due prewarms. */
    void maintenance(TimeUs now);

    /**
     * Would a maintenance tick at any time from now on do nothing until
     * the next offer/crash/restart/oomKill? True when the server may
     * park (can_park_), no event is pending and no request is queued.
     */
    bool quiescent() const
    {
        return can_park_ && events_.empty() && queue_size_ == 0;
    }

    /**
     * Mutator prologue of incremental driving: check that the caller
     * settled the server to `now`, and re-arm a parked maintenance tick
     * at the next grid point >= now before anything else is scheduled.
     */
    void rearmParkedTick(TimeUs now);

    void evict(ContainerId id, TimeUs now, bool expired);

    /** Shared arrival path of the Reference replay's Arrival events
     *  and offer(). */
    bool acceptArrival(std::size_t invocation_index, const Invocation& inv,
                       TimeUs now, bool redispatched);

    /** Process one event from the internal queue. */
    void handleEvent(const ServerEvent& event);

    /** Schedule the attached injector's crashes and OOM kills on the
     *  Failure lane (standalone run() only). */
    void scheduleFaultPlan();

    /** Reset per-run accounting and bind `trace`. */
    void beginRun(const Trace& trace);

    /** Trace-free core of beginRun(): reset accounting, bind the
     *  function catalog, and pre-size per-function state. */
    void beginRunCommon(const std::vector<FunctionSpec>& functions,
                        std::size_t invocation_hint);

    /** O(1) request-conservation check (audit-only; see audit_). */
    void auditConservation(TimeUs now);

    /** Final leftover-queue and downtime accounting; unbinds the
     *  trace and returns the result. */
    PlatformResult closeRun(TimeUs horizon_us);

    /** Nil slot/link of the dense request arena. */
    static constexpr std::uint32_t kNilRequest = 0xffffffffu;

    /**
     * One arena slot of the dense request queue: a PendingRequest
     * threaded into an intrusive doubly-linked FIFO. Free slots are
     * chained through `next` (free list), so steady state recycles
     * slots with no allocation; nodes never move once linked, so the
     * drain can unlink mid-walk without shifting neighbors.
     */
    struct RequestNode
    {
        PendingRequest req;
        std::uint32_t prev = kNilRequest;
        std::uint32_t next = kNilRequest;
    };

    /** Append a request at the tail of the dense FIFO. */
    void pushRequestDense(const PendingRequest& request);

    /** Unlink node `i` from the FIFO and recycle its slot. */
    void eraseRequestDense(std::uint32_t i);

    /** Drop all queued requests and recycle the arena (crash flush /
     *  run reset). Keeps slot capacity. */
    void clearRequestQueueDense();

    std::unique_ptr<KeepAlivePolicy> policy_;
    ServerConfig config_;
    ContainerPool pool_;
    EventCore<EventKind> events_;
    SimClock clock_;

    /** Reference-backend request buffer. */
    std::deque<PendingRequest> queue_;

    /** Dense-backend request arena + intrusive FIFO through it. */
    std::vector<RequestNode> request_nodes_;
    std::uint32_t queue_head_ = kNilRequest;
    std::uint32_t queue_tail_ = kNilRequest;
    std::uint32_t request_free_ = kNilRequest;
    std::size_t queue_size_ = 0;

    /** Bound trace for the Reference replay's prescheduled arrivals;
     *  null under streaming driving. */
    const Trace* trace_ = nullptr;

    /** Function catalog of the current run (trace's or the source's);
     *  the only per-run workload state the hot path reads. */
    const std::vector<FunctionSpec>* catalog_ = nullptr;

    FaultInjector* injector_ = nullptr;
    PlatformResult result_;

    /** Per-function accounting of the current run, sized by use;
     *  closeRun() copies its non-zero rows into result_'s records. */
    struct FunctionTally
    {
        FunctionOutcome outcome;
        double latency_sum_sec = 0.0;
    };
    FunctionTable<FunctionTally> tallies_;

    /** The run's tally of `function`'s outcomes. */
    FunctionOutcome& outcomeOf(FunctionId function)
    {
        return tallies_[function].outcome;
    }

    /** CoDel-style admission controller (overload.admission). */
    AdmissionController admission_;

    /** Cold-start brownout governor (overload.brownout). */
    BrownoutGovernor brownout_;

    /** Successful container spawns this run (monotonic). */
    std::int64_t spawn_successes_ = 0;
    /** Occupied CPU slots (cold inits may hold extra slots). */
    int running_ = 0;

    /**
     * Crash fallout goes back to an external front end, which
     * re-dispatches it, so flushed requests resolve outside this
     * server's counters (audit_external_returns_). begin() sets it;
     * run() clears it, since a standalone crash loses its fallout here.
     */
    bool external_fallout_ = false;

    /** Last instant a maintenance tick may fire: the run's horizon, or
     *  unbounded until finish() names it. */
    TimeUs horizon_us_ = 0;

    /** policy_->resourceConserving(), read once: when true, a tick
     *  skips the policy's expiry and prewarm calls (both no-ops). */
    bool resource_conserving_ = false;

    /**
     * Idle maintenance ticks may be skipped: Dense backend, policy
     * resourceConserving(), no auditor, brownout off (the drain updates
     * the brownout governor even on an empty queue). Fixed at
     * construction.
     */
    bool can_park_ = false;

    /** The maintenance tick found the server quiescent and did not
     *  reschedule itself; the next mutator re-arms it. */
    bool tick_parked_ = false;

    /** See maintenanceTicks(). */
    std::int64_t maintenance_ticks_ = 0;

    bool down_ = false;
    TimeUs down_since_ = 0;

    /** Normalized invariant auditor (null unless attached + enabled). */
    Auditor* audit_ = nullptr;

    /**
     * Request-conservation ledger, maintained only while auditing:
     * every accepted call into acceptArrival() increments arrivals;
     * every definitive disposition (drop, completion, crash abort,
     * crash flush, OOM abort, leftover at close) increments resolved.
     * Invariant: arrivals == resolved + queued + in-flight.
     */
    std::int64_t audit_arrivals_ = 0;
    std::int64_t audit_resolved_ = 0;

    /** Resolved entries handed back to an external dispatcher (crash
     *  fallout under incremental driving) rather than counted in a
     *  drop/served counter of this server's result. */
    std::int64_t audit_external_returns_ = 0;

    /** Attach the in-flight record of a running container. */
    void setInflight(const Container& c, const Inflight& data);

    /** Detach and return the record of `c`. @pre one was attached. */
    Inflight takeInflight(const Container& c);

    /** Drop every in-flight record (crash flush / run reset). */
    void clearInflight();

    /**
     * Running invocations, indexed by container pool slot (dense,
     * allocation-free steady state; see InflightEntry for validity).
     */
    std::vector<InflightEntry> inflight_;

    /** Live entries in inflight_ (crash-path fast exit). */
    std::size_t inflight_count_ = 0;
};

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_SERVER_H_
