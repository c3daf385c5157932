#include "platform/server.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace faascache {

const char*
platformBackendName(PlatformBackend backend)
{
    switch (backend) {
      case PlatformBackend::Dense:
        return "dense";
      case PlatformBackend::Reference:
        return "reference";
    }
    return "unknown";
}

void
ServerConfig::validate() const
{
    if (cores <= 0) {
        throw std::invalid_argument("ServerConfig: cores must be > 0, got " +
                                    std::to_string(cores));
    }
    if (!(memory_mb > 0)) {
        throw std::invalid_argument(
            "ServerConfig: memory_mb must be > 0, got " +
            std::to_string(memory_mb));
    }
    if (queue_capacity == 0) {
        throw std::invalid_argument(
            "ServerConfig: queue_capacity must be > 0 (a zero-length "
            "buffer would drop every request)");
    }
    if (queue_timeout_us <= 0 || queue_timeout_us > kMaxArrivalUs) {
        throw std::invalid_argument(
            "ServerConfig: queue_timeout_us must be in (0, " +
            std::to_string(kMaxArrivalUs) + "], got " +
            std::to_string(queue_timeout_us));
    }
    if (maintenance_interval_us <= 0) {
        throw std::invalid_argument(
            "ServerConfig: maintenance_interval_us must be > 0, got " +
            std::to_string(maintenance_interval_us));
    }
    if (cold_start_cpu_slots < 1 || cold_start_cpu_slots > cores) {
        throw std::invalid_argument(
            "ServerConfig: cold_start_cpu_slots must be in [1, cores], "
            "got " +
            std::to_string(cold_start_cpu_slots) + " with " +
            std::to_string(cores) + " cores");
    }
    overload.validate();
}

double
PlatformResult::coldStartPercent() const
{
    const std::int64_t n = served();
    return n > 0 ? 100.0 * static_cast<double>(cold_starts) /
                   static_cast<double>(n)
                 : 0.0;
}

double
PlatformResult::dropPercent() const
{
    const std::int64_t n = total();
    return n > 0 ? 100.0 * static_cast<double>(dropped()) /
                   static_cast<double>(n)
                 : 0.0;
}

double
PlatformResult::meanLatencySec() const
{
    if (latencies_sec.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : latencies_sec)
        sum += v;
    return sum / static_cast<double>(latencies_sec.size());
}

const PlatformResult::FunctionRecord*
PlatformResult::recordOf(FunctionId function) const
{
    if (function >= catalog_size) {
        throw std::out_of_range("PlatformResult: function " +
                                std::to_string(function) +
                                " outside the catalog of " +
                                std::to_string(catalog_size));
    }
    const auto it = std::lower_bound(
        function_records.begin(), function_records.end(), function,
        [](const FunctionRecord& r, FunctionId f) { return r.function < f; });
    return it != function_records.end() && it->function == function ? &*it
                                                                   : nullptr;
}

FunctionOutcome
PlatformResult::outcomeOf(FunctionId function) const
{
    const FunctionRecord* record = recordOf(function);
    return record != nullptr ? record->outcome : FunctionOutcome{};
}

double
PlatformResult::latencySumOf(FunctionId function) const
{
    const FunctionRecord* record = recordOf(function);
    return record != nullptr ? record->latency_sum_sec : 0.0;
}

double
PlatformResult::meanLatencySecOf(FunctionId function) const
{
    const FunctionRecord* record = recordOf(function);
    const std::int64_t n = record != nullptr ? record->outcome.served() : 0;
    if (n == 0)
        return 0.0;
    return record->latency_sum_sec / static_cast<double>(n);
}

Server::Server(std::unique_ptr<KeepAlivePolicy> policy, ServerConfig config)
    : policy_(std::move(policy)), config_(config),
      // Validate before the pool captures the capacity (its
      // constructor asserts on non-positive memory).
      pool_((config_.validate(), config_.memory_mb), config_.pool_backend),
      admission_(config_.overload.admission),
      brownout_(config_.overload.brownout)
{
    if (!policy_)
        throw std::invalid_argument("Server: null policy");
    events_.bindCancellation(config_.cancel);
    audit_ = config_.audit != nullptr && config_.audit->enabled()
        ? config_.audit
        : nullptr;
    events_.bindAuditor(audit_);
    pool_.setAuditor(audit_);
    resource_conserving_ = policy_->resourceConserving();
    can_park_ = config_.platform_backend == PlatformBackend::Dense &&
        audit_ == nullptr && !config_.overload.brownout.enabled &&
        resource_conserving_;
}

void
Server::auditConservation(TimeUs now)
{
    if (audit_ == nullptr)
        return;
    const std::int64_t open = static_cast<std::int64_t>(queueDepth()) +
        static_cast<std::int64_t>(inflight_count_);
    if (audit_arrivals_ != audit_resolved_ + open) {
        audit_->fail("request-conservation", now, -1,
                     "arrivals " + std::to_string(audit_arrivals_) +
                         " != resolved " + std::to_string(audit_resolved_) +
                         " + queued " + std::to_string(queueDepth()) +
                         " + inflight " + std::to_string(inflight_count_));
    }
}

void
Server::setInflight(const Container& c, const Inflight& data)
{
    const std::uint32_t slot = c.poolSlot();
    if (slot >= inflight_.size())
        inflight_.resize(std::max<std::size_t>(2 * inflight_.size(),
                                               slot + 1));
    assert(inflight_[slot].id == kInvalidContainer);
    inflight_[slot] = InflightEntry{c.id(), data};
    ++inflight_count_;
}

Server::Inflight
Server::takeInflight(const Container& c)
{
    const std::uint32_t slot = c.poolSlot();
    assert(slot < inflight_.size() && inflight_[slot].id == c.id());
    const Inflight data = inflight_[slot].data;
    inflight_[slot].id = kInvalidContainer;
    --inflight_count_;
    return data;
}

void
Server::clearInflight()
{
    inflight_.clear();
    inflight_count_ = 0;
}

void
Server::evict(ContainerId id, TimeUs now, bool expired)
{
    Container* c = pool_.get(id);
    assert(c != nullptr && c->idle());
    const bool last = pool_.countOf(c->function()) == 1;
    policy_->onEviction(*c, last, now);
    pool_.remove(id);
    if (expired)
        ++result_.expirations;
    else
        ++result_.evictions;
}

Server::Dispatch
Server::tryDispatch(const PendingRequest& request, TimeUs now)
{
    if (running_ >= config_.cores)
        return Dispatch::Blocked;

    const Invocation& inv = request.inv;
    const FunctionSpec& spec = (*catalog_)[inv.function];
    FunctionOutcome& outcome = outcomeOf(spec.id);

    if (Container* warm = pool_.findIdleWarm(spec.id)) {
        // Warm hits are served even while browned out: that is the
        // whole point of the brownout mode.
        warm->startInvocation(now, now + spec.warm_us);
        policy_->onWarmStart(*warm, spec, now);
        ++running_;
        ++result_.warm_starts;
        ++outcome.warm;
        setInflight(*warm,
                    Inflight{request.invocation_index, request.inv,
                             request.latency_anchor_us,
                             /*cold=*/false, request.redispatched});
        events_.schedule(warm->busyUntil(), EventKind::Finish, warm->id());
        return Dispatch::Started;
    }

    // Cold path: initialization burns extra platform CPU. A browned-out
    // server denies cold work outright — before any victim selection,
    // so the warm Greedy-Dual cache is never evicted to feed a cold
    // start the overload will starve anyway.
    if (brownout_.active())
        return Dispatch::BrownoutDenied;
    const int cold_slots = std::max(1, config_.cold_start_cpu_slots);
    if (running_ + cold_slots > config_.cores)
        return Dispatch::Blocked;

    TimeUs stall_us = 0;
    if (!pool_.fits(spec.mem_mb)) {
        const MemMb needed = spec.mem_mb - pool_.freeMb();
        const auto victims = policy_->selectVictims(pool_, needed, now);
        MemMb freed = 0;
        for (ContainerId id : victims)
            freed += pool_.get(id)->memMb();
        if (pool_.freeMb() + freed < spec.mem_mb) {
            // Busy containers hold the memory: the §7.2 feedback loop's
            // signature state and the brownout memory-pressure trigger.
            brownout_.noteMemoryPressure(now);
            return Dispatch::Blocked;
        }
        for (ContainerId id : victims)
            evict(id, now, /*expired=*/false);
        if (injector_ != nullptr) {
            stall_us = injector_->reclaimStall();
            if (stall_us > 0)
                ++result_.robustness.reclaim_stalls;
        }
    }

    if (injector_ != nullptr && injector_->spawnFails())
        return Dispatch::SpawnFailed;

    TimeUs init_us = spec.initTime();
    if (injector_ != nullptr && injector_->coldStartStraggles()) {
        init_us = injector_->straggleInit(init_us);
        ++result_.robustness.straggler_cold_starts;
    }

    Container& fresh = pool_.add(spec, now);
    ++spawn_successes_;
    fresh.startInvocation(now, now + stall_us + init_us + spec.warm_us);
    policy_->onColdStart(fresh, spec, now);
    running_ += cold_slots;
    ++result_.cold_starts;
    ++outcome.cold;
    if (request.redispatched)
        ++result_.robustness.redispatch_cold_starts;
    setInflight(fresh,
                Inflight{request.invocation_index, request.inv,
                         request.latency_anchor_us,
                         /*cold=*/true, request.redispatched,
                         /*extra_slots=*/cold_slots - 1});
    if (cold_slots > 1) {
        events_.schedule(now + stall_us + init_us, EventKind::InitDone,
                         fresh.id());
    }
    events_.schedule(fresh.busyUntil(), EventKind::Finish, fresh.id());
    return Dispatch::Started;
}

void
Server::pushRequestDense(const PendingRequest& request)
{
    std::uint32_t i;
    if (request_free_ != kNilRequest) {
        i = request_free_;
        request_free_ = request_nodes_[i].next;
    } else {
        i = static_cast<std::uint32_t>(request_nodes_.size());
        request_nodes_.emplace_back();
    }
    RequestNode& node = request_nodes_[i];
    node.req = request;
    node.prev = queue_tail_;
    node.next = kNilRequest;
    if (queue_tail_ != kNilRequest)
        request_nodes_[queue_tail_].next = i;
    else
        queue_head_ = i;
    queue_tail_ = i;
    ++queue_size_;
}

void
Server::eraseRequestDense(std::uint32_t i)
{
    RequestNode& node = request_nodes_[i];
    if (node.prev != kNilRequest)
        request_nodes_[node.prev].next = node.next;
    else
        queue_head_ = node.next;
    if (node.next != kNilRequest)
        request_nodes_[node.next].prev = node.prev;
    else
        queue_tail_ = node.prev;
    node.prev = kNilRequest;
    node.next = request_free_;
    request_free_ = i;
    --queue_size_;
}

void
Server::clearRequestQueueDense()
{
    request_nodes_.clear();
    queue_head_ = kNilRequest;
    queue_tail_ = kNilRequest;
    request_free_ = kNilRequest;
    queue_size_ = 0;
}

void
Server::drainQueue(TimeUs now)
{
    if (config_.platform_backend == PlatformBackend::Reference)
        drainQueueReference(now);
    else
        drainQueueDense(now);
}

void
Server::drainQueueReference(TimeUs now)
{
    // Re-evaluate brownout before dispatch decisions so this drain sees
    // the current admission/memory-pressure state.
    if (config_.overload.brownout.enabled)
        brownout_.update(admission_.violating(), now);
    // Scan in arrival order but skip entries that cannot start yet:
    // OpenWhisk schedules per activation, so a large function waiting
    // for memory does not block small warm functions behind it. Once a
    // core is unavailable nothing can start, so stop scanning.
    std::deque<PendingRequest> still_waiting;
    while (!queue_.empty()) {
        PendingRequest head = queue_.front();
        queue_.pop_front();
        if (now - head.enqueued_us > config_.queue_timeout_us) {
            ++result_.dropped_timeout;
            ++outcomeOf(head.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
            continue;
        }
        if (now < head.not_before_us) {
            // Spawn-failure holdoff; entries behind it may still start.
            still_waiting.push_back(head);
            continue;
        }
        if (running_ >= config_.cores) {
            if (!brownout_.active()) {
                still_waiting.push_back(head);
                break;
            }
            // Brownout queue purge: deny cold-path entries even while
            // every core is busy — otherwise the scan would stop here
            // and the cold backlog would stand through the brownout,
            // keeping the sojourn target violated forever. Entries that
            // could be served warm keep their place in line.
            const FunctionId fn = head.inv.function;
            if (pool_.findIdleWarm(fn) == nullptr) {
                ++result_.overload.brownout_denied_cold;
                ++outcomeOf(fn).dropped;
                if (audit_ != nullptr)
                    ++audit_resolved_;
            } else {
                still_waiting.push_back(head);
            }
            continue;
        }
        const Dispatch outcome = tryDispatch(head, now);
        if (outcome == Dispatch::Started) {
            // Sojourn feedback: how long this request waited for a core
            // is the admission controller's control signal.
            admission_.onDequeue(now - head.enqueued_us, now);
            continue;
        }
        if (outcome == Dispatch::BrownoutDenied) {
            ++result_.overload.brownout_denied_cold;
            ++outcomeOf(head.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
            continue;
        }
        if (outcome == Dispatch::SpawnFailed) {
            ++result_.robustness.spawn_failures;
            head.not_before_us =
                now + injector_->plan().spawn_retry_delay_us;
            events_.schedule(head.not_before_us, EventKind::Retry);
            still_waiting.push_back(head);
            continue;
        }
        still_waiting.push_back(head);
    }
    // Preserve arrival order of everything not dispatched.
    while (!queue_.empty()) {
        still_waiting.push_back(queue_.front());
        queue_.pop_front();
    }
    queue_ = std::move(still_waiting);
    // Congestion watermark: a core's worth of backlog whose head has
    // stood for several service times (5 s). The age requirement keeps
    // the synchronized minute-bucket arrival spikes of the Azure replay
    // rule — which drain as fast as running containers finish — from
    // reading as congestion. Feeds the time-to-recovery metric of
    // bench/fig_overload.
    if (queue_.size() >= static_cast<std::size_t>(config_.cores) &&
        now - queue_.front().enqueued_us >= 5 * kSecond) {
        result_.last_congested_us = now;
    }
    auditConservation(now);
}

void
Server::drainQueueDense(TimeUs now)
{
    // Mirrors drainQueueReference() decision for decision — same scan
    // order, same injector draws, same counter updates — but walks the
    // intrusive FIFO in place: dispatched and dropped nodes are
    // unlinked mid-walk, survivors are never touched, and stopping at
    // a full core bank leaves the tail exactly where it stood. The
    // reference path instead pops every entry into a freshly
    // constructed deque per drain, which the fig8 profile shows is the
    // platform's dominant cost at scale.
    if (config_.overload.brownout.enabled)
        brownout_.update(admission_.violating(), now);
    std::uint32_t i = queue_head_;
    while (i != kNilRequest) {
        const std::uint32_t next = request_nodes_[i].next;
        PendingRequest& head = request_nodes_[i].req;
        if (now - head.enqueued_us > config_.queue_timeout_us) {
            ++result_.dropped_timeout;
            ++outcomeOf(head.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
            eraseRequestDense(i);
            i = next;
            continue;
        }
        if (now < head.not_before_us) {
            // Spawn-failure holdoff; entries behind it may still start.
            i = next;
            continue;
        }
        if (running_ >= config_.cores) {
            if (!brownout_.active())
                break;
            // Brownout queue purge (see drainQueueReference): deny
            // cold-path entries even with every core busy; entries
            // servable warm keep their place in line.
            const FunctionId fn = head.inv.function;
            if (pool_.findIdleWarm(fn) == nullptr) {
                ++result_.overload.brownout_denied_cold;
                ++outcomeOf(fn).dropped;
                if (audit_ != nullptr)
                    ++audit_resolved_;
                eraseRequestDense(i);
            }
            i = next;
            continue;
        }
        const Dispatch outcome = tryDispatch(head, now);
        if (outcome == Dispatch::Started) {
            admission_.onDequeue(now - head.enqueued_us, now);
            eraseRequestDense(i);
            i = next;
            continue;
        }
        if (outcome == Dispatch::BrownoutDenied) {
            ++result_.overload.brownout_denied_cold;
            ++outcomeOf(head.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
            eraseRequestDense(i);
            i = next;
            continue;
        }
        if (outcome == Dispatch::SpawnFailed) {
            ++result_.robustness.spawn_failures;
            head.not_before_us =
                now + injector_->plan().spawn_retry_delay_us;
            events_.schedule(head.not_before_us, EventKind::Retry);
        }
        // SpawnFailed and Blocked both keep the node queued in place.
        i = next;
    }
    // Congestion watermark — same rule as the reference drain.
    if (queue_size_ >= static_cast<std::size_t>(config_.cores) &&
        now - request_nodes_[queue_head_].req.enqueued_us >= 5 * kSecond) {
        result_.last_congested_us = now;
    }
    auditConservation(now);
}

void
Server::maintenance(TimeUs now)
{
    ++maintenance_ticks_;
    // A resource-conserving policy promises that expiredContainers()
    // and duePrewarms() return {} and change no state, so skipping both
    // is exact.
    if (!resource_conserving_) {
        // Expire first so a lease ending now cannot block a prewarm via
        // the skip-if-already-warm check.
        for (ContainerId id : policy_->expiredContainers(pool_, now))
            evict(id, now, /*expired=*/true);
        // Asked even with prewarming off: the call may advance the
        // policy's own schedule.
        for (FunctionId fn : policy_->duePrewarms(now)) {
            const FunctionSpec& spec = (*catalog_)[fn];
            if (!config_.enable_prewarm ||
                pool_.findIdleWarm(fn) != nullptr ||
                !pool_.fits(spec.mem_mb)) {
                continue;
            }
            Container& c = pool_.add(spec, now, /*prewarmed=*/true);
            policy_->onPrewarm(c, spec, now);
            ++result_.prewarms;
        }
    }
    drainQueue(now);
    // Deep structural pool audit: O(slots), so it rides the periodic
    // maintenance tick rather than the per-event fast path.
    if (audit_ != nullptr)
        pool_.auditInvariants(*audit_, now);
}

bool
Server::acceptArrival(std::size_t invocation_index, const Invocation& inv,
                      TimeUs now, bool redispatched)
{
    const FunctionSpec& spec = (*catalog_)[inv.function];
    if (audit_ != nullptr)
        ++audit_arrivals_;
    if (down_) {
        ++result_.robustness.dropped_unavailable;
        ++outcomeOf(spec.id).dropped;
        if (audit_ != nullptr)
            ++audit_resolved_;
        return false;
    }
    policy_->onInvocationArrival(spec, now);
    if (spec.mem_mb > pool_.capacityMb()) {
        ++result_.dropped_oversize;
        ++outcomeOf(spec.id).dropped;
        if (audit_ != nullptr)
            ++audit_resolved_;
        return false;
    }
    // Adaptive admission: shed at the arrival edge while the queue
    // delay target stays violated (deterministic CoDel schedule).
    if (config_.overload.admission.enabled && admission_.shouldShed(now)) {
        ++result_.overload.admission_shed;
        ++outcomeOf(spec.id).dropped;
        if (audit_ != nullptr)
            ++audit_resolved_;
        return false;
    }
    // Preserve FIFO ordering: join the queue and drain.
    if (queueDepth() >= config_.queue_capacity) {
        ++result_.dropped_queue_full;
        ++outcomeOf(spec.id).dropped;
        if (audit_ != nullptr)
            ++audit_resolved_;
        return false;
    }
    PendingRequest request;
    request.invocation_index = invocation_index;
    request.inv = inv;
    request.enqueued_us = now;
    request.latency_anchor_us = redispatched ? inv.arrival_us : now;
    request.redispatched = redispatched;
    if (config_.platform_backend == PlatformBackend::Reference)
        queue_.push_back(request);
    else
        pushRequestDense(request);
    drainQueue(now);
    return true;
}

void
Server::handleEvent(const ServerEvent& event)
{
    const TimeUs now = event.time_us;
    clock_.advanceTo(now);
    switch (event.kind) {
      case EventKind::Arrival: {
        // Prescheduled arrivals exist only on the Reference replay,
        // which always runs against a bound trace.
        const auto index = static_cast<std::size_t>(event.payload);
        acceptArrival(index, trace_->invocations()[index], now,
                      /*redispatched=*/false);
        break;
      }
      case EventKind::Finish: {
        const auto id = static_cast<ContainerId>(event.payload);
        Container* c = pool_.get(id);
        if (c == nullptr)
            break;  // stale: the container died with a crash
        assert(c->busy());
        c->finishInvocation();
        --running_;
        const Inflight inflight = takeInflight(*c);
        if (audit_ != nullptr)
            ++audit_resolved_;
        const double latency_sec =
            toSeconds(now - inflight.latency_anchor_us);
        result_.latencies_sec.push_back(latency_sec);
        tallies_[c->function()].latency_sum_sec += latency_sec;
        drainQueue(now);
        break;
      }
      case EventKind::InitDone: {
        // The init phase's extra CPU slots are released; the
        // function itself keeps executing on one core.
        Container* c = pool_.get(static_cast<ContainerId>(event.payload));
        if (c == nullptr)
            break;  // stale after a crash
        running_ -= std::max(1, config_.cold_start_cpu_slots) - 1;
        // The in-flight record now holds only its base core, so an
        // abort after this point releases exactly one slot.
        assert(c->poolSlot() < inflight_.size() &&
               inflight_[c->poolSlot()].id == c->id());
        inflight_[c->poolSlot()].data.extra_slots = 0;
        drainQueue(now);
        break;
      }
      case EventKind::Maintenance:
        // Ticks fire on the grid k * interval <= horizon_us_. finish()
        // may lower the horizon below a tick armed before it was known.
        if (now > horizon_us_)
            break;
        if (!down_)
            maintenance(now);
        // Park instead of rescheduling: until a mutator runs, every
        // later tick would find the same quiescent state and do
        // nothing. rearmParkedTick() restores the chain exactly.
        if (quiescent()) {
            tick_parked_ = true;
            break;
        }
        if (now + config_.maintenance_interval_us <= horizon_us_) {
            events_.schedule(now + config_.maintenance_interval_us,
                             EventKind::Maintenance);
        }
        break;
      case EventKind::Retry:
        if (!down_)
            drainQueue(now);
        break;
      case EventKind::Crash: {
        // Self-scheduled (standalone run()) crash: there is no front
        // end to fail the spilled work over to, so it is lost here.
        // Crashes ride the Failure lane, so a restart due at this very
        // instant has already run; finding the server still down means
        // this crash sits inside a wider outage and is absorbed by it.
        if (down_)
            break;
        assert(injector_ != nullptr);
        const CrashEvent& ce =
            injector_->crashes()[static_cast<std::size_t>(event.payload)];
        const CrashFallout fallout = crash(now);
        for (const SpilledRequest& spilled : fallout.aborted)
            ++outcomeOf(spilled.inv.function).dropped;
        for (const SpilledRequest& spilled : fallout.flushed_queue) {
            ++result_.robustness.dropped_unavailable;
            ++outcomeOf(spilled.inv.function).dropped;
        }
        if (ce.restart_after_us > 0)
            events_.schedule(now + ce.restart_after_us, EventKind::Restart);
        break;
      }
      case EventKind::Restart:
        restart(now);
        break;
      case EventKind::OomKill: {
        // Self-scheduled (standalone run()) OOM kill: no front end to
        // re-dispatch the aborted invocation, so it is lost here.
        if (down_)
            break;
        const auto aborted = oomKill(now);
        if (aborted.has_value())
            ++outcomeOf(aborted->inv.function).dropped;
        break;
      }
    }
}

void
Server::rearmParkedTick(TimeUs now)
{
    // Callers settle before they mutate: nothing pending before `now`.
    assert(events_.empty() || events_.nextTime() >= now);
    if (!tick_parked_)
        return;
    tick_parked_ = false;
    // The heap was empty at park time and nothing has been scheduled
    // since, so this tick takes a lower seq than every event the
    // mutator and its successors schedule — the same (time, lane, seq)
    // order the self-rescheduled tick had. The ticks skipped between
    // the parked one (the last event this server processed) and `now`
    // would all have been no-ops.
    const TimeUs interval = config_.maintenance_interval_us;
    const TimeUs next = (now + interval - 1) / interval * interval;
    assert(next > clock_.now());
    if (next <= horizon_us_)
        events_.schedule(next, EventKind::Maintenance);
}

Server::CrashFallout
Server::crash(TimeUs now)
{
    rearmParkedTick(now);
    CrashFallout fallout;
    if (down_)
        return fallout;
    ++result_.robustness.crashes;

    // Roll back the start accounting of aborted invocations: they did
    // not complete here, and a cluster may re-dispatch them.
    for (const InflightEntry& entry : inflight_) {
        if (entry.id == kInvalidContainer)
            continue;
        const Inflight& inflight = entry.data;
        FunctionOutcome& outcome =
            outcomeOf(inflight.inv.function);
        if (inflight.cold) {
            --result_.cold_starts;
            --outcome.cold;
            if (inflight.redispatched)
                --result_.robustness.redispatch_cold_starts;
        } else {
            --result_.warm_starts;
            --outcome.warm;
        }
        ++result_.robustness.crash_aborted;
        fallout.aborted.push_back(
            SpilledRequest{inflight.invocation_index, inflight.inv});
        if (audit_ != nullptr)
            ++audit_resolved_;
    }
    std::sort(fallout.aborted.begin(), fallout.aborted.end(),
              [](const SpilledRequest& a, const SpilledRequest& b) {
                  return a.invocation_index < b.invocation_index;
              });
    clearInflight();
    running_ = 0;

    // Flush the container pool: every container (busy, warm, and
    // prewarmed) dies with the server. Policies observe the flush as
    // evictions so their per-function bookkeeping stays consistent.
    std::vector<ContainerId> ids;
    ids.reserve(pool_.size());
    pool_.forEach([&ids](Container& c) { ids.push_back(c.id()); });
    std::sort(ids.begin(), ids.end());
    for (ContainerId id : ids) {
        Container* c = pool_.get(id);
        if (c->busy())
            c->finishInvocation();
        const bool last = pool_.countOf(c->function()) == 1;
        policy_->onEviction(*c, last, now);
        pool_.remove(id);
        ++result_.robustness.crash_flushed_containers;
    }

    if (config_.platform_backend == PlatformBackend::Reference) {
        for (const PendingRequest& pending : queue_) {
            fallout.flushed_queue.push_back(
                SpilledRequest{pending.invocation_index, pending.inv});
        }
        queue_.clear();
    } else {
        for (std::uint32_t i = queue_head_; i != kNilRequest;
             i = request_nodes_[i].next) {
            const PendingRequest& pending = request_nodes_[i].req;
            fallout.flushed_queue.push_back(
                SpilledRequest{pending.invocation_index, pending.inv});
        }
        clearRequestQueueDense();
    }
    if (audit_ != nullptr) {
        // Flushed entries leave this server's books: the standalone
        // crash handler counts them dropped_unavailable; under
        // incremental driving the front end re-dispatches them, so
        // they resolve externally.
        audit_resolved_ +=
            static_cast<std::int64_t>(fallout.flushed_queue.size());
        if (external_fallout_) {
            audit_external_returns_ +=
                static_cast<std::int64_t>(fallout.flushed_queue.size());
        }
    }

    down_ = true;
    down_since_ = now;
    return fallout;
}

void
Server::restart(TimeUs now)
{
    rearmParkedTick(now);
    if (!down_)
        return;
    down_ = false;
    ++result_.robustness.restarts;
    result_.robustness.downtime_us += now - down_since_;
}

std::optional<Server::SpilledRequest>
Server::oomKill(TimeUs now)
{
    rearmParkedTick(now);
    if (down_)
        return std::nullopt;
    // Victim: the fattest busy container, ties to the lowest id. The
    // comparison is order-independent, so the backend-specific forEach
    // order cannot change the choice.
    Container* victim = nullptr;
    pool_.forEach([&victim](Container& c) {
        if (!c.busy())
            return;
        if (victim == nullptr || c.memMb() > victim->memMb() ||
            (c.memMb() == victim->memMb() && c.id() < victim->id())) {
            victim = &c;
        }
    });
    if (victim == nullptr)
        return std::nullopt;

    ++result_.robustness.oom_kills;
    const Inflight inflight = takeInflight(*victim);
    // Roll back the start accounting exactly like a crash abort: the
    // invocation did not complete here, and a cluster may re-dispatch
    // it.
    FunctionOutcome& outcome = outcomeOf(inflight.inv.function);
    if (inflight.cold) {
        --result_.cold_starts;
        --outcome.cold;
        if (inflight.redispatched)
            --result_.robustness.redispatch_cold_starts;
    } else {
        --result_.warm_starts;
        --outcome.warm;
    }
    ++result_.robustness.crash_aborted;
    running_ -= 1 + inflight.extra_slots;

    // The container dies with its invocation. The policy observes an
    // eviction so its per-function bookkeeping stays consistent; the
    // pending Finish (and InitDone) events go stale and are absorbed
    // by the id checks, since pool ids are never reused.
    victim->finishInvocation();
    const bool last = pool_.countOf(victim->function()) == 1;
    policy_->onEviction(*victim, last, now);
    pool_.remove(victim->id());
    if (audit_ != nullptr)
        ++audit_resolved_;

    // The freed core and memory may unblock queued work immediately.
    drainQueue(now);
    return SpilledRequest{inflight.invocation_index, inflight.inv};
}

void
Server::beginRun(const Trace& trace)
{
    if (!trace.validate() || !trace.isSorted())
        throw std::invalid_argument("Server: invalid or unsorted trace");
    trace_ = &trace;
    beginRunCommon(trace.functions(), trace.invocations().size());
}

void
Server::beginRunCommon(const std::vector<FunctionSpec>& functions,
                       std::size_t invocation_hint)
{
    catalog_ = &functions;
    // A cancelled or abandoned previous run may have left events
    // pending or requests buffered; a fresh run must never observe a
    // stale heap or queue.
    events_.clear();
    queue_.clear();
    clearRequestQueueDense();
    clock_.reset();
    result_ = PlatformResult{};
    result_.policy_name = policy_->name();
    result_.config = config_;
    tallies_ = FunctionTable<FunctionTally>{};
    // At most one latency sample per invocation; one up-front grow
    // instead of doubling through the run.
    result_.latencies_sec.reserve(invocation_hint);
    clearInflight();
    tick_parked_ = false;
    maintenance_ticks_ = 0;
    admission_.reset();
    brownout_.reset();
    spawn_successes_ = 0;
    audit_arrivals_ = 0;
    audit_resolved_ = 0;
    audit_external_returns_ = 0;
    // Allocation hints; per-function tables are sized by use.
    policy_->reserveFunctions(functions.size());
    pool_.reserve(/*containers=*/256);
}

void
Server::scheduleFaultPlan()
{
    if (injector_ == nullptr)
        return;
    const auto& crashes = injector_->crashes();
    for (std::size_t k = 0; k < crashes.size(); ++k)
        events_.scheduleFailure(crashes[k].at_us, EventKind::Crash, k);
    const auto& ooms = injector_->oomKills();
    for (std::size_t k = 0; k < ooms.size(); ++k)
        events_.scheduleFailure(ooms[k].at_us, EventKind::OomKill, k);
}

PlatformResult
Server::run(const Trace& trace)
{
    if (config_.platform_backend == PlatformBackend::Reference) {
        beginRun(trace);
        external_fallout_ = false;
        const auto& invocations = trace.invocations();
        // beginRun() rejected an unsorted trace: the last arrival is
        // the latest.
        if (!invocations.empty())
            checkArrivalTime(invocations.back(), "Server");
        horizon_us_ = invocations.empty()
            ? 0
            : invocations.back().arrival_us + config_.queue_timeout_us;
        // The oracle preschedules every arrival, so arrivals take the
        // lowest sequence numbers and win every timestamp tie — the
        // order the Dense driver gets by offering each arrival before
        // it settles that instant's events.
        events_.reserve(invocations.size() + 64);
        for (std::size_t i = 0; i < invocations.size(); ++i)
            events_.schedule(invocations[i].arrival_us, EventKind::Arrival, i);
        if (!invocations.empty())
            events_.schedule(0, EventKind::Maintenance);
        scheduleFaultPlan();

        while (!events_.empty())
            handleEvent(events_.pop());

        return closeRun(horizon_us_);
    }

    // Dense: stream the trace through the incremental driver. The
    // eager validation here preserves run()'s historical contract (the
    // streamed loop only detects violations as it consumes them).
    if (!trace.validate() || !trace.isSorted())
        throw std::invalid_argument("Server: invalid or unsorted trace");
    TraceSource source(trace);
    return run(source);
}

PlatformResult
Server::run(InvocationSource& source)
{
    if (config_.platform_backend == PlatformBackend::Reference) {
        // The reference oracle preschedules every arrival by index,
        // which needs random access; materialize once and replay.
        const Trace trace = materializeSource(source);
        return run(trace);
    }

    // Dense: the same begin/advanceTo/offer/finish loop the cluster
    // front end runs, so standalone and cluster servers share one tick
    // chain, one parking path and one horizon rule. Only failure-plan
    // and runtime traffic enter the heap; arrivals stay in the cursor.
    source.reset();
    begin(source.functions(), source.countHint().count);
    external_fallout_ = false;
    scheduleFaultPlan();

    std::size_t index = 0;
    TimeUs last_arrival = 0;
    Invocation inv;
    while (source.next(inv)) {
        if (config_.cancel != nullptr)
            config_.cancel->throwIfCancelled();
        if (inv.arrival_us < last_arrival) {
            throw std::runtime_error(
                "Server: source arrivals out of order (" +
                std::to_string(inv.arrival_us) + " after " +
                std::to_string(last_arrival) + ")");
        }
        checkArrivalTime(inv, "Server");
        if (inv.function >= catalog_->size()) {
            throw std::runtime_error(
                "Server: source function id " +
                std::to_string(inv.function) + " out of range (catalog " +
                std::to_string(catalog_->size()) + ")");
        }
        last_arrival = inv.arrival_us;
        advanceTo(last_arrival);
        offer(index++, inv, last_arrival);
    }
    return finish(index == 0 ? 0 : last_arrival + config_.queue_timeout_us);
}

void
Server::begin(const std::vector<FunctionSpec>& functions,
              std::size_t invocation_hint)
{
    trace_ = nullptr;
    beginRunCommon(functions, invocation_hint);
    external_fallout_ = true;
    horizon_us_ = std::numeric_limits<TimeUs>::max();
    // The heap only ever holds runtime traffic (the dispatcher streams
    // arrivals through offer()), so a modest reservation keeps peak
    // memory stream-length-free.
    events_.reserve(256);
    events_.schedule(0, EventKind::Maintenance);
}

bool
Server::offer(std::size_t invocation_index, const Invocation& inv,
              TimeUs now, bool redispatched)
{
    rearmParkedTick(now);
    return acceptArrival(invocation_index, inv, now, redispatched);
}

void
Server::advanceTo(TimeUs now)
{
    while (!events_.empty() && events_.nextTime() < now)
        handleEvent(events_.pop());
}

PlatformResult
Server::finish(TimeUs horizon_us)
{
    horizon_us_ = horizon_us;
    while (!events_.empty())
        handleEvent(events_.pop());
    return closeRun(horizon_us);
}

PlatformResult
Server::closeRun(TimeUs horizon_us)
{
    // Anything still buffered can never be served (no more events).
    if (config_.platform_backend == PlatformBackend::Reference) {
        for (const PendingRequest& pending : queue_) {
            ++result_.dropped_timeout;
            ++outcomeOf(pending.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
        }
        queue_.clear();
    } else {
        for (std::uint32_t i = queue_head_; i != kNilRequest;
             i = request_nodes_[i].next) {
            ++result_.dropped_timeout;
            ++outcomeOf(request_nodes_[i].req.inv.function).dropped;
            if (audit_ != nullptr)
                ++audit_resolved_;
        }
        clearRequestQueueDense();
    }
    // A server that never came back is unavailable to the end of the
    // observation window.
    if (down_ && horizon_us > down_since_)
        result_.robustness.downtime_us += horizon_us - down_since_;
    result_.catalog_size = catalog_->size();
    result_.function_records.reserve(tallies_.size());
    tallies_.forEachById([this](FunctionId f, const FunctionTally& t) {
        if (t.outcome != FunctionOutcome{}) {
            result_.function_records.push_back(
                {f, t.outcome, t.latency_sum_sec});
        }
    });
    result_.overload.admission_violations = admission_.violations();
    result_.overload.brownout_windows = brownout_.windows();
    result_.overload.brownout_us = brownout_.activeUs(horizon_us);
    if (audit_ != nullptr) {
        const TimeUs now = clock_.now();
        if (inflight_count_ != 0) {
            audit_->fail("inflight-drained", now, -1,
                         std::to_string(inflight_count_) +
                             " invocation(s) still in flight at close");
        }
        if (audit_arrivals_ != audit_resolved_) {
            audit_->fail("request-conservation", now, -1,
                         "at close: arrivals " +
                             std::to_string(audit_arrivals_) +
                             " != resolved " +
                             std::to_string(audit_resolved_));
        }
        const auto completions =
            static_cast<std::int64_t>(result_.latencies_sec.size());
        if (result_.served() != completions) {
            audit_->fail("start-accounting", now, -1,
                         "warm+cold " + std::to_string(result_.served()) +
                             " != completions " +
                             std::to_string(completions));
        }
        // Every arrival must land in exactly one terminal counter.
        const std::int64_t ledger = completions +
            result_.dropped_queue_full + result_.dropped_timeout +
            result_.dropped_oversize +
            result_.robustness.dropped_unavailable +
            result_.overload.admission_shed +
            result_.overload.brownout_denied_cold +
            result_.robustness.crash_aborted + audit_external_returns_;
        if (audit_arrivals_ != ledger) {
            audit_->fail("request-ledger", now, -1,
                         "arrivals " + std::to_string(audit_arrivals_) +
                             " != terminal-counter sum " +
                             std::to_string(ledger));
        }
        pool_.auditInvariants(*audit_, now);
    }
    trace_ = nullptr;
    catalog_ = nullptr;
    // begin() reassigns result_; the counter accessors read its scalars,
    // which a move leaves intact.
    return std::move(result_);
}

}  // namespace faascache
