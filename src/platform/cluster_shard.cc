#include "platform/cluster_shard.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "engine/event_engine.h"
#include "platform/balancer_stream.h"
#include "sim/sweep_runner.h"
#include "util/audit.h"

namespace faascache {

namespace {

/** Polls of a barrier generation or snapshot epoch before the waiter
 *  stops burning its core (sleeps on the condvar, or yields). */
constexpr int kSpinPolls = 2000;

/** "Never": no pending event, and the end of a whole-run window. */
constexpr TimeUs kNoEvent = std::numeric_limits<TimeUs>::max();

/** t + span for t, span >= 0, saturating at kNoEvent. */
inline TimeUs
saturatingAdd(TimeUs t, TimeUs span)
{
    return t > kNoEvent - span ? kNoEvent : t + span;
}

/** One busy-wait step: a CPU pause where the ISA has one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

}  // namespace

std::size_t
effectiveShards(std::size_t shards, std::size_t num_servers)
{
    assert(shards >= 1);
    return std::min(shards, num_servers);
}

std::pair<std::size_t, std::size_t>
shardServerRange(std::size_t shard, std::size_t num_shards,
                 std::size_t num_servers)
{
    assert(shard < num_shards && num_shards <= num_servers);
    const std::size_t base = num_servers / num_shards;
    const std::size_t extra = num_servers % num_shards;
    const std::size_t first =
        shard * base + std::min(shard, extra);
    const std::size_t count = base + (shard < extra ? 1 : 0);
    return {first, count};
}

std::size_t
shardOfServer(std::size_t server, std::size_t num_shards,
              std::size_t num_servers)
{
    assert(server < num_servers && num_shards <= num_servers);
    const std::size_t base = num_servers / num_shards;
    const std::size_t extra = num_servers % num_shards;
    const std::size_t wide = extra * (base + 1);
    if (server < wide)
        return server / (base + 1);
    return extra + (server - wide) / base;
}

TimeUs
shardWindowUs(const ClusterConfig& config)
{
    // With no faults, no shed mark, no retry budget and no breakers the
    // primary always accepts: nothing is forwarded or retried and no
    // snapshot is read, so no cross-shard effect exists and one window
    // spans the whole run.
    const FailoverConfig& failover = config.failover;
    if (config.faults.empty() && failover.shed_queue_depth == 0 &&
        !failover.retry_budget.enabled() && !failover.breaker.enabled()) {
        return kNoEvent;
    }
    // Otherwise the minimum cross-shard latency: a retry backs off by
    // at least base_backoff_us (jitter only adds), and forwarded offers
    // are quantized to window boundaries by the protocol itself, so H =
    // base_backoff_us is a safe conservative lookahead.
    return failover.base_backoff_us;
}

bool
ShardMailbox::anyPosted() const
{
    for (const auto& box : outboxes_) {
        if (!box.empty())
            return true;
    }
    return false;
}

void
ShardMailbox::exchange(
    const std::function<std::size_t(std::size_t server)>& owner)
{
    for (auto& box : inboxes_)
        box.clear();
    for (auto& box : outboxes_) {
        for (const ShardMail& mail : box)
            inboxes_[owner(mail.target)].push_back(mail);
        box.clear();
    }
    // Canonical delivery order, independent of the posting shard and
    // of how posts interleaved inside the window: offers (delivered at
    // the barrier instant) first by (index, attempt); retries (heap
    // insertions) by their fire time. A request is in exactly one
    // place at a time, so (kind, index, attempt) never collides;
    // target is a pure safety tiebreak.
    auto less = [](const ShardMail& a, const ShardMail& b) {
        if (a.kind != b.kind)
            return a.kind < b.kind;
        if (a.kind == ShardMail::Kind::RetryFire && a.at_us != b.at_us)
            return a.at_us < b.at_us;
        if (a.index != b.index)
            return a.index < b.index;
        if (a.attempt != b.attempt)
            return a.attempt < b.attempt;
        return a.target < b.target;
    };
    for (auto& box : inboxes_)
        std::sort(box.begin(), box.end(), less);
}

void
ShardBarrier::arriveAndWait(const std::function<void()>& leader)
{
    if (aborted())
        throw ShardAborted();
    // Stable until this thread arrives: the generation advances only
    // once every party, this one included, has arrived.
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    // acq_rel: the leader sees every party's writes made before it
    // arrived (the RMW chain carries them).
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
        arrived_.store(0, std::memory_order_relaxed);
        if (leader) {
            try {
                leader();
            } catch (...) {
                aborted_.store(true, std::memory_order_release);
                release(generation + 1);
                throw;
            }
        }
        release(generation + 1);
        return;
    }
    auto released = [&] {
        return generation_.load(std::memory_order_acquire) != generation ||
            aborted();
    };
    for (int poll = 0; poll < kSpinPolls && !released(); ++poll)
        cpuRelax();
    if (!released()) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, released);
    }
    if (aborted())
        throw ShardAborted();
}

void
ShardBarrier::release(std::uint64_t generation)
{
    {
        // Under the mutex, so a waiter between its last check and its
        // sleep cannot miss the wake-up.
        std::lock_guard<std::mutex> lock(mutex_);
        generation_.store(generation, std::memory_order_release);
    }
    cv_.notify_all();
}

void
ShardBarrier::abort()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        aborted_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
}

namespace {

/** Front-end events local to one shard's heap. */
enum class ShardEvent
{
    RetryFire,  ///< re-dispatch a request whose primary we own
    Crash,      ///< a crash of an owned server (Failure lane)
    Restart,    ///< an owned crashed server rejoins
    OomKill,    ///< a memory-pressure kill on an owned server
};

/** Remote view of a server, frozen at the window instant. */
struct ShardSnapshot
{
    bool down = false;
    bool admit = true;  ///< CircuitBreaker::peekAllow at the barrier
    std::size_t queue_depth = 0;
};

/** Per-shard front-end counters, summed by the coordinator. */
struct ShardCounters
{
    std::int64_t retries = 0;
    std::int64_t failovers = 0;
    std::int64_t shed_requests = 0;
    std::int64_t failed_requests = 0;
    std::int64_t retry_budget_exhausted = 0;
    std::int64_t partition_unreachable = 0;
    std::int64_t breaker_opens = 0;
    std::int64_t breaker_closes = 0;
    std::int64_t breaker_probes = 0;
};

/** State shared by all shard workers of one windowed run. */
struct WindowedRun
{
    const ClusterConfig* config = nullptr;
    PolicyKind kind{};
    const PolicyConfig* policy_config = nullptr;
    const SourceFactory* make_source = nullptr;
    std::size_t num_shards = 0;
    TimeUs window_us = 0;
    std::vector<CrashEvent> crashes;  ///< shared expanded schedule

    ShardBarrier barrier;
    ShardMailbox mailbox;
    std::function<std::size_t(std::size_t)> owner;

    /** Written by each server's owner in phase A, read by everyone in
     *  phase C of the same round: a reader first waits for the owner's
     *  epoch (awaitSnapshots); the next write follows the round's
     *  barrier, which every reader has passed. */
    std::vector<ShardSnapshot> snapshots;

    /** Last round whose snapshots a shard has written, release-stored;
     *  one cache line per shard. */
    struct alignas(64) SnapshotEpoch
    {
        std::atomic<std::uint64_t> round{0};
    };
    std::vector<SnapshotEpoch> published;

    /** Reduction slots, one per shard, read by the barrier leader. */
    std::vector<TimeUs> local_min;
    std::vector<TimeUs> shard_last_event;
    std::vector<std::size_t> shard_stream_length;

    /** Leader-owned round state, read by all after the barrier. */
    TimeUs window_start = 0;
    bool done = false;
    TimeUs global_last_event = 0;

    std::vector<PlatformResult> server_results;
    std::vector<ShardCounters> counters;
    std::vector<std::exception_ptr> errors;

    explicit WindowedRun(std::size_t shards, std::size_t servers)
        : barrier(shards), mailbox(shards), snapshots(servers),
          published(shards), local_min(shards, kNoEvent),
          shard_last_event(shards, 0), shard_stream_length(shards, 0),
          server_results(servers), counters(shards), errors(shards)
    {
    }

    /**
     * Block until `shard` has published its snapshots of `round`. The
     * owner publishes right after the barrier that opened the round,
     * without waiting on anyone, so this ends unless the owner failed;
     * then the barrier is aborted and this throws ShardAborted.
     */
    void awaitSnapshots(std::size_t shard, std::uint64_t round) const
    {
        const std::atomic<std::uint64_t>& epoch = published[shard].round;
        for (int poll = 0; epoch.load(std::memory_order_acquire) < round;
             ++poll) {
            if (barrier.aborted())
                throw ShardAborted();
            if (poll < kSpinPolls)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }
};

/**
 * One shard's worker: owns servers [first, first + count), replays the
 * full arrival stream through its own cursor + PrimaryTracker (so
 * balancer draws stay in global order), processes owned events window
 * by window, and exchanges cross-shard effects at barriers. See the
 * header comment for the invariance argument.
 */
void
runShardWorker(WindowedRun& run, std::size_t shard)
{
    const ClusterConfig& config = *run.config;
    const FailoverConfig& failover = config.failover;
    const std::size_t n = config.num_servers;
    const auto [first_server, owned_count] =
        shardServerRange(shard, run.num_shards, n);
    const std::size_t end_server = first_server + owned_count;
    auto owned = [&](std::size_t s) {
        return s >= first_server && s < end_server;
    };

    Auditor* audit =
        config.server.audit != nullptr && config.server.audit->enabled()
        ? config.server.audit
        : nullptr;

    const std::unique_ptr<InvocationSource> source = (*run.make_source)();
    source->reset();
    const std::vector<FunctionSpec>& catalog = source->functions();
    const SourceCountHint hint = source->countHint();

    std::vector<FaultInjector> injectors;
    injectors.reserve(owned_count);
    std::vector<std::unique_ptr<Server>> servers(n);
    for (std::size_t s = first_server; s < end_server; ++s) {
        injectors.emplace_back(config.faults, s, n);
        servers[s] = std::make_unique<Server>(
            makePolicy(run.kind, *run.policy_config), config.server);
        servers[s]->setFaultInjector(&injectors.back());
        // Sizing hint only: each server sees roughly 1/n of the stream.
        servers[s]->begin(catalog, hint.count / n + 16);
    }

    EventCore<ShardEvent> events;
    events.bindCancellation(config.server.cancel);
    events.bindAuditor(audit);
    const std::vector<OomKillEvent>& ooms = config.faults.oom_kills;
    events.reserve(run.crashes.size() + ooms.size() + 64);
    std::vector<EventBatchItem<ShardEvent>> setup;
    setup.reserve(std::max(run.crashes.size(), ooms.size()));
    for (std::size_t k = 0; k < run.crashes.size(); ++k) {
        if (!owned(run.crashes[k].server))
            continue;
        EventBatchItem<ShardEvent> item;
        item.time_us = run.crashes[k].at_us;
        item.kind = ShardEvent::Crash;
        item.payload = k;
        setup.push_back(item);
    }
    events.scheduleBatch(setup, EventLane::Failure);
    setup.clear();
    for (std::size_t k = 0; k < ooms.size(); ++k) {
        if (!owned(ooms[k].server))
            continue;
        EventBatchItem<ShardEvent> item;
        item.time_us = ooms[k].at_us;
        item.kind = ShardEvent::OomKill;
        item.payload = k;
        setup.push_back(item);
    }
    events.scheduleBatch(setup, EventLane::Failure);

    // Per-server partition windows with a monotonic cursor each: this
    // shard's queries are time-ordered (events within a window are
    // processed in time order, windows advance), and reachability is a
    // pure function of (server, time), so per-shard cursors answer
    // identically for every shard count.
    std::vector<std::vector<PartitionWindow>> partition_windows(n);
    std::vector<std::size_t> partition_cursor(n, 0);
    for (std::size_t s = 0; s < n; ++s)
        partition_windows[s] = config.faults.partitionsFor(s);
    auto partitioned = [&](std::size_t s, TimeUs now) {
        const auto& wins = partition_windows[s];
        std::size_t& cur = partition_cursor[s];
        while (cur < wins.size() && wins[cur].until_us <= now)
            ++cur;
        return cur < wins.size() && wins[cur].from_us <= now;
    };

    // Round counter (identical on every shard) and, per shard, the
    // last round whose published snapshots this shard has waited for.
    std::uint64_t round = 0;
    std::vector<std::uint64_t> snapshots_seen(run.num_shards, 0);

    ShardCounters& ctr = run.counters[shard];
    std::vector<char> down(n, 0);
    TimeUs last_event_us = 0;

    std::vector<RetryBudget> budgets(n,
                                     RetryBudget(failover.retry_budget));
    std::vector<CircuitBreaker> breakers(n,
                                         CircuitBreaker(failover.breaker));
    std::vector<std::int64_t> seen_failures(n, 0);
    std::vector<std::int64_t> seen_successes(n, 0);
    const bool breaker_on = failover.breaker.enabled();
    auto observeServer = [&](std::size_t s, TimeUs now) {
        const std::int64_t failures = servers[s]->spawnFailureCount() +
            servers[s]->queueTimeoutDropCount();
        const std::int64_t successes = servers[s]->spawnSuccessCount() +
            servers[s]->warmStartCount();
        for (; seen_failures[s] < failures; ++seen_failures[s])
            breakers[s].recordFailure(now);
        for (; seen_successes[s] < successes; ++seen_successes[s])
            breakers[s].recordSuccess(now);
    };
    // Every mutation of an owned server's state — dispatch, mail
    // delivery, crash, restart, OOM kill — settles it first, which
    // marks it due for phase A (-1). Phase A then records the instant
    // before which the server provably stays as its snapshot froze it:
    // its next internal event, or -1 while its breaker is not Closed
    // (an Open breaker turns HalfOpen by time alone).
    std::vector<TimeUs> settle_due(n, -1);
    auto settleServer = [&](std::size_t s, TimeUs now) {
        servers[s]->advanceTo(now);
        if (breaker_on)
            observeServer(s, now);
        settle_due[s] = -1;
    };

    const std::uint64_t jitter_base =
        deriveCellSeed(config.seed, 0xBACC0FFEULL);

    // A request's attempt count travels with it: the request is in
    // exactly one place at any moment, so the count riding along IS
    // the global count. `resident` records the attempt/primary of
    // requests currently sitting on an owned server whenever they
    // differ from the attempt-0/self default (forwarded or retried
    // residents); `retry_info` holds the invocation + primary of
    // retries pending on this shard (we own their primary).
    struct Resident
    {
        int attempt = 0;
        std::size_t primary = 0;
    };
    std::unordered_map<std::size_t, Resident> resident;
    struct PendingRetry
    {
        Invocation inv;
        std::size_t primary = 0;
    };
    std::unordered_map<std::size_t, PendingRetry> retry_info;

    // Bounded re-dispatch with jittered exponential backoff under the
    // per-request timeout budget; exhaustion fails the request. Local
    // thanks to the traveling attempt count: `provoker` (whose budget
    // is debited) is always owned by this shard. The scheduled fire
    // always crosses the mailbox — even when we own the primary — so
    // the path taken never depends on the shard layout.
    auto scheduleRetry = [&](std::size_t index, const Invocation& inv,
                             TimeUs now, std::size_t provoker,
                             int attempt, std::size_t primary) {
        if (attempt >= failover.max_retries) {
            ++ctr.failed_requests;
            return;
        }
        if (!budgets[provoker].trySpend()) {
            ++ctr.failed_requests;
            ++ctr.retry_budget_exhausted;
            return;
        }
        const int shift = std::min(attempt, 20);
        TimeUs backoff = failover.base_backoff_us << shift;
        if (failover.backoff_jitter_frac > 0.0) {
            const std::uint64_t draw = deriveCellSeed(
                jitter_base,
                (static_cast<std::uint64_t>(index) << 8) |
                    (static_cast<std::uint64_t>(attempt) & 0xff));
            const auto span = static_cast<std::uint64_t>(
                static_cast<double>(backoff) *
                failover.backoff_jitter_frac) + 1;
            backoff += static_cast<TimeUs>(draw % span);
        }
        const TimeUs at = now + backoff;
        if (at - inv.arrival_us > failover.request_timeout_us) {
            ++ctr.failed_requests;
            return;
        }
        ++ctr.retries;
        ShardMail mail;
        mail.kind = ShardMail::Kind::RetryFire;
        mail.index = index;
        mail.inv = inv;
        mail.attempt = attempt + 1;
        mail.target = primary;
        mail.primary = primary;
        mail.at_us = at;
        run.mailbox.outbox(shard).push_back(mail);
    };

    // The attempt/primary under which a request sits on an owned
    // server (attempt-0 locals never allocate an entry).
    auto residentOf = [&](std::size_t index, std::size_t host) {
        const auto it = resident.find(index);
        return it != resident.end() ? it->second : Resident{0, host};
    };

    // Route one dispatch. `primary` is owned by this shard (arrivals
    // and retries both fire on the primary's owner). Live state is
    // consulted only for the primary itself; every other server — even
    // a same-shard one — is judged by its window snapshot, so the
    // probe sequence is a pure function of snapshot state and shard
    // layout cannot change it.
    auto processDispatch = [&](std::size_t index, const Invocation& inv,
                               int attempt, std::size_t primary,
                               TimeUs now) {
        settleServer(primary, now);
        const std::size_t start =
            (primary + static_cast<std::size_t>(attempt)) % n;
        std::size_t chosen = n;
        bool any_healthy = false;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t s = (start + k) % n;
            if (s == primary) {
                if (down[s] != 0)
                    continue;
                if (partitioned(s, now)) {
                    ++ctr.partition_unreachable;
                    continue;
                }
                if (!breakers[s].allowRequest(now))
                    continue;
                any_healthy = true;
                if (failover.shed_queue_depth > 0 &&
                    servers[s]->queueDepth() >=
                        failover.shed_queue_depth) {
                    continue;
                }
            } else {
                const std::size_t owner =
                    shardOfServer(s, run.num_shards, n);
                if (snapshots_seen[owner] != round) {
                    run.awaitSnapshots(owner, round);
                    snapshots_seen[owner] = round;
                }
                const ShardSnapshot& snap = run.snapshots[s];
                if (snap.down)
                    continue;
                if (partitioned(s, now)) {
                    ++ctr.partition_unreachable;
                    continue;
                }
                if (!snap.admit)
                    continue;
                any_healthy = true;
                if (failover.shed_queue_depth > 0 &&
                    snap.queue_depth >= failover.shed_queue_depth) {
                    continue;
                }
            }
            chosen = s;
            break;
        }
        if (chosen == n) {
            if (any_healthy) {
                ++ctr.shed_requests;
            } else {
                scheduleRetry(index, inv, now, primary, attempt,
                              primary);
            }
            return;
        }
        if (chosen != primary) {
            ++ctr.failovers;
            ShardMail mail;
            mail.kind = ShardMail::Kind::ForwardOffer;
            mail.index = index;
            mail.inv = inv;
            mail.attempt = attempt;
            mail.target = chosen;
            mail.primary = primary;
            run.mailbox.outbox(shard).push_back(mail);
            return;
        }
        if (attempt == 0)
            budgets[primary].onFreshArrival();
        else
            resident[index] = Resident{attempt, primary};
        servers[primary]->offer(index, inv, now,
                                /*redispatched=*/attempt > 0);
    };

    PrimaryTracker primaries(config, catalog.size());
    std::size_t cursor_index = 0;
    TimeUs last_arrival = 0;
    Invocation arr;

    for (;;) {
        const TimeUs window = run.window_start;
        const TimeUs window_end = saturatingAdd(window, run.window_us);
        ++round;

        // Phase A: settle owned servers to the window instant and
        // publish their snapshots (the frozen view every other shard
        // dispatches against for the coming window). Posts no mail.
        // A server not due before this window is skipped: no event of
        // its own precedes the window and nothing touched it since its
        // last settle, so advancing and observing it would do nothing
        // and its published snapshot (down flag, queue depth, a Closed
        // breaker's admit) is still exact.
        for (std::size_t s = first_server; s < end_server; ++s) {
            if (settle_due[s] >= window)
                continue;
            settleServer(s, window);
            ShardSnapshot snap;
            snap.down = down[s] != 0;
            snap.admit = breakers[s].peekAllow(window);
            snap.queue_depth = servers[s]->queueDepth();
            run.snapshots[s] = snap;
            if (audit != nullptr) {
                const double tokens = budgets[s].tokens();
                audit->require(
                    tokens >= -1e-9 &&
                        tokens <= failover.retry_budget.burst + 1e-9,
                    "retry-budget-bounds", window,
                    static_cast<std::int64_t>(s),
                    "retry tokens outside [0, burst]");
                audit->require(
                    breakers[s].closes() <= breakers[s].opens(),
                    "breaker-transitions", window,
                    static_cast<std::int64_t>(s),
                    "more closes than opens");
            }
            settle_due[s] =
                breakers[s].state(window) == BreakerState::Closed
                ? servers[s]->nextEventTime()
                : -1;
        }
        run.published[shard].round.store(round,
                                         std::memory_order_release);
        snapshots_seen[shard] = round;

        // Phase B: deliver the mail routed to this shard at the last
        // barrier, at the window instant.
        for (const ShardMail& mail : run.mailbox.inbox(shard)) {
            last_event_us = std::max(last_event_us, window);
            if (mail.kind == ShardMail::Kind::ForwardOffer) {
                settleServer(mail.target, window);
                // The snapshot the sender trusted may have gone stale
                // inside the window: a target that crashed or whose
                // breaker refuses now bounces the offer back through
                // the retry path, debiting the refusing server.
                if (down[mail.target] != 0 ||
                    !breakers[mail.target].allowRequest(window)) {
                    scheduleRetry(mail.index, mail.inv, window,
                                  mail.target, mail.attempt,
                                  mail.primary);
                    continue;
                }
                if (mail.attempt == 0)
                    budgets[mail.target].onFreshArrival();
                resident[mail.index] =
                    Resident{mail.attempt, mail.primary};
                servers[mail.target]->offer(mail.index, mail.inv, window,
                                            /*redispatched=*/
                                            mail.attempt > 0);
            } else {
                retry_info[mail.index] =
                    PendingRetry{mail.inv, mail.primary};
                events.schedule(mail.at_us, ShardEvent::RetryFire,
                                mail.index,
                                static_cast<std::uint64_t>(mail.attempt));
            }
        }

        // Phase C: simulate the window [window, window_end) — merge
        // the arrival cursor against the shard heap, arrival wins
        // ties.
        for (;;) {
            const bool have_arrival = source->peek(arr);
            const TimeUs arrival_t =
                have_arrival ? arr.arrival_us : kNoEvent;
            const TimeUs heap_t =
                events.empty() ? kNoEvent : events.nextTime();
            if (std::min(arrival_t, heap_t) >= window_end)
                break;
            if (have_arrival && arrival_t <= heap_t) {
                if (config.server.cancel != nullptr)
                    config.server.cancel->throwIfCancelled();
                Invocation inv;
                source->next(inv);
                checkClusterArrival(inv, last_arrival, catalog.size());
                const std::size_t index = cursor_index++;
                // Every shard replays every draw in stream order; only
                // the owner of the primary acts on the arrival.
                const std::size_t primary =
                    primaries.onArrival(index, inv);
                if (!owned(primary))
                    continue;
                last_event_us = std::max(last_event_us, inv.arrival_us);
                processDispatch(index, inv, 0, primary, inv.arrival_us);
                continue;
            }
            const EngineEvent<ShardEvent> event = events.pop();
            const TimeUs now = event.time_us;
            last_event_us = std::max(last_event_us, now);
            switch (event.kind) {
              case ShardEvent::RetryFire: {
                const auto index =
                    static_cast<std::size_t>(event.payload);
                const int attempt = static_cast<int>(event.payload2);
                const PendingRetry info = retry_info.at(index);
                processDispatch(index, info.inv, attempt, info.primary,
                                now);
                break;
              }
              case ShardEvent::Crash: {
                const CrashEvent& ce =
                    run.crashes[static_cast<std::size_t>(event.payload)];
                if (down[ce.server] != 0)
                    break;
                settleServer(ce.server, now);
                const Server::CrashFallout fallout =
                    servers[ce.server]->crash(now);
                down[ce.server] = 1;
                if (ce.restart_after_us > 0) {
                    events.schedule(now + ce.restart_after_us,
                                    ShardEvent::Restart, ce.server);
                }
                for (const Server::SpilledRequest& spilled :
                     fallout.aborted) {
                    const Resident res =
                        residentOf(spilled.invocation_index, ce.server);
                    scheduleRetry(spilled.invocation_index, spilled.inv,
                                  now, ce.server, res.attempt,
                                  res.primary);
                }
                for (const Server::SpilledRequest& spilled :
                     fallout.flushed_queue) {
                    const Resident res =
                        residentOf(spilled.invocation_index, ce.server);
                    scheduleRetry(spilled.invocation_index, spilled.inv,
                                  now, ce.server, res.attempt,
                                  res.primary);
                }
                break;
              }
              case ShardEvent::Restart: {
                const auto server =
                    static_cast<std::size_t>(event.payload);
                settleServer(server, now);
                servers[server]->restart(now);
                down[server] = 0;
                break;
              }
              case ShardEvent::OomKill: {
                const OomKillEvent& oe =
                    ooms[static_cast<std::size_t>(event.payload)];
                if (down[oe.server] != 0)
                    break;
                settleServer(oe.server, now);
                const auto aborted = servers[oe.server]->oomKill(now);
                if (aborted.has_value()) {
                    const Resident res =
                        residentOf(aborted->invocation_index, oe.server);
                    scheduleRetry(aborted->invocation_index,
                                  aborted->inv, now, oe.server,
                                  res.attempt, res.primary);
                }
                break;
              }
            }
        }

        // Phase D: publish this shard's earliest future work and let
        // the leader route the window's mail and advance (or finish)
        // the window sequence — the round's only barrier. The
        // cursor peek is identical on every shard — all shards consume
        // the same stream prefix per window — so the global minimum is
        // shard-layout-invariant.
        {
            const bool have_arrival = source->peek(arr);
            // An arrival at kNoEvent would never be consumed and so
            // never counted: reject what phase C left in the cursor.
            if (have_arrival)
                checkArrivalTime(arr, "runCluster");
            TimeUs local_min = have_arrival ? arr.arrival_us : kNoEvent;
            if (!events.empty())
                local_min = std::min(local_min, events.nextTime());
            run.local_min[shard] = local_min;
            run.shard_last_event[shard] = last_event_us;
        }
        run.barrier.arriveAndWait([&run] {
            const bool any_mail = run.mailbox.anyPosted();
            // Delivered in the next round's phase B, at its window
            // instant (also clears the inboxes just consumed).
            run.mailbox.exchange(run.owner);
            TimeUs global_min = kNoEvent;
            for (const TimeUs t : run.local_min)
                global_min = std::min(global_min, t);
            if (!any_mail && global_min == kNoEvent) {
                TimeUs last = 0;
                for (const TimeUs t : run.shard_last_event)
                    last = std::max(last, t);
                run.global_last_event = last;
                run.done = true;
                return;
            }
            const TimeUs next =
                saturatingAdd(run.window_start, run.window_us);
            if (any_mail) {
                // Posted mail must be delivered at the very next
                // window instant; the window sequence stays contiguous.
                run.window_start = next;
            } else {
                // Nothing in flight before global_min: skip empty
                // windows, staying on the H grid so barrier times are
                // a pure function of simulation state.
                run.window_start = std::max(
                    next,
                    (global_min / run.window_us) * run.window_us);
            }
        });
        if (run.done)
            break;
    }

    const TimeUs horizon =
        run.global_last_event + config.server.queue_timeout_us;
    run.shard_stream_length[shard] = cursor_index;
    for (std::size_t s = first_server; s < end_server; ++s) {
        run.server_results[s] = servers[s]->finish(horizon);
        // Its result is out: free the pool, policy and tables now, so
        // the shard holds one finished server's state at a time.
        servers[s].reset();
        ctr.breaker_opens += breakers[s].opens();
        ctr.breaker_closes += breakers[s].closes();
        ctr.breaker_probes += breakers[s].probes();
    }
}

}  // namespace

ClusterResult
runClusterShardedWindowed(const SourceFactory& make_source,
                          PolicyKind kind, const ClusterConfig& config,
                          const PolicyConfig& policy_config)
{
    const std::size_t n = config.num_servers;
    const std::size_t num_shards = effectiveShards(config.shards, n);

    WindowedRun run(num_shards, n);
    run.config = &config;
    run.kind = kind;
    run.policy_config = &policy_config;
    run.make_source = &make_source;
    run.num_shards = num_shards;
    run.window_us = shardWindowUs(config);
    run.crashes = config.faults.expandedCrashes(n);
    run.owner = [num_shards, n](std::size_t server) {
        return shardOfServer(server, num_shards, n);
    };

    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
        workers.emplace_back([&run, shard] {
            try {
                runShardWorker(run, shard);
            } catch (const ShardAborted&) {
                // A peer failed; its exception is the one to report.
            } catch (...) {
                run.errors[shard] = std::current_exception();
                run.barrier.abort();
            }
        });
    }
    for (auto& worker : workers)
        worker.join();
    for (const std::exception_ptr& error : run.errors) {
        if (error)
            std::rethrow_exception(error);
    }

    ClusterResult result;
    result.servers = std::move(run.server_results);
    for (const ShardCounters& ctr : run.counters) {
        result.retries += ctr.retries;
        result.failovers += ctr.failovers;
        result.shed_requests += ctr.shed_requests;
        result.failed_requests += ctr.failed_requests;
        result.retry_budget_exhausted += ctr.retry_budget_exhausted;
        result.partition_unreachable += ctr.partition_unreachable;
        result.breaker_opens += ctr.breaker_opens;
        result.breaker_closes += ctr.breaker_closes;
        result.breaker_probes += ctr.breaker_probes;
    }

    Auditor* audit =
        config.server.audit != nullptr && config.server.audit->enabled()
        ? config.server.audit
        : nullptr;
    if (audit != nullptr) {
        // Every shard consumed the identical stream; fleet-wide
        // request conservation over its length.
        const std::size_t stream_length = run.shard_stream_length[0];
        for (const std::size_t len : run.shard_stream_length) {
            if (len != stream_length) {
                audit->fail("shard-stream-agreement", 0, -1,
                            "shard cursors consumed different stream "
                            "lengths");
            }
        }
        std::int64_t terminal =
            result.shed_requests + result.failed_requests;
        for (const PlatformResult& s : result.servers)
            terminal += s.served() + s.dropped();
        const auto expected =
            static_cast<std::int64_t>(stream_length);
        if (terminal != expected) {
            const TimeUs horizon = run.global_last_event +
                config.server.queue_timeout_us;
            audit->fail("fleet-conservation", horizon, -1,
                        "stream invocations " + std::to_string(expected) +
                            " != shed + failed + sum(served + dropped) " +
                            std::to_string(terminal));
        }
    }
    return result;
}

ClusterResult
runCluster(const ShardedWorkload& workload, PolicyKind kind,
           const ClusterConfig& config, const PolicyConfig& policy_config)
{
    config.validate();
    if (!workload.make_full) {
        throw std::invalid_argument(
            "runCluster: ShardedWorkload.make_full is required");
    }
    return runClusterShardedWindowed(workload.make_full, kind, config,
                                     policy_config);
}

}  // namespace faascache
