/**
 * @file
 * The shared discrete-event engine core (DESIGN.md §4c).
 *
 * All three execution layers — the trace-driven simulator (sim/), the
 * OpenWhisk-like platform model (platform/), and the elastic
 * provisioning harness (provisioning/) — schedule through this one
 * engine instead of hand-rolling their own loops:
 *
 *  - EventCore<Kind>: a deterministic event queue ordered by
 *    (time, lane, seq). Events at equal timestamps are delivered by
 *    tie-break lane first, then in insertion (FIFO) order via a
 *    monotonically increasing sequence number.
 *  - SimClock: the simulation clock, advanced monotonically as events
 *    are delivered.
 *  - PeriodicSchedule (periodic_schedule.h): registered periodic tasks
 *    (maintenance, memory sampling, background reclaim, controller
 *    periods, HRC refresh).
 *
 * Tie-break lanes. A lane is the engine-level replacement for PR 3's
 * same-timestamp crash/restart deferral hack: instead of popping a
 * crash, noticing the server is down, and re-enqueueing it once so a
 * same-instant restart can run first, fault-injection events are
 * scheduled in the late `Failure` lane up front. At any timestamp t:
 *
 *    lane      | delivered | carries
 *    ----------+-----------+------------------------------------------
 *    Normal=0  | first     | arrivals, finishes, maintenance, retries,
 *              |           | restarts — all ordinary simulation events
 *    Failure=1 | last      | injected faults (crashes)
 *
 * so a restart due at the exact instant of a crash always runs before
 * it, and a crash that still finds the server down is absorbed by the
 * wider outage — with no special-case code at the delivery site. The
 * lane is also the engine's fault-injection hook: any future injected
 * fault kind schedules in the Failure lane and inherits the same
 * deterministic ordering guarantee.
 *
 * Cooperative cancellation. A bound util/cancellation token is checked
 * on every pop(), so a watchdog or signal handler unwinds any event
 * loop built on the engine promptly (CancelledError propagates out of
 * the loop). A run that is never cancelled is byte-identical with or
 * without a token bound.
 *
 * Heap layout (DESIGN.md §4d). The queue is a flat 4-ary heap: children
 * of node i sit at 4i+1..4i+4, so the tree is half as deep as a binary
 * heap and a sift touches one cache line of children per level. Because
 * (time, lane, seq) is a *total* order (seq is unique), the pop sequence
 * is the sorted event sequence regardless of heap arity — switching
 * arity cannot change observable behavior, only constant factors. The
 * backing vector is recycled through a per-thread stash across
 * EventCore lifetimes, so consecutive sweep cells on a worker thread
 * reuse the previous cell's reserved capacity instead of reallocating.
 */
#ifndef FAASCACHE_ENGINE_EVENT_ENGINE_H_
#define FAASCACHE_ENGINE_EVENT_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/audit.h"
#include "util/cancellation.h"
#include "util/types.h"

namespace faascache {

/**
 * Same-timestamp tie-break lane. Lower lanes deliver first; within a
 * lane, insertion (FIFO) order wins. Keep ordinary simulation traffic
 * in Normal so existing FIFO semantics are untouched; schedule injected
 * faults in Failure so same-instant recovery events always precede
 * them.
 */
enum class EventLane : std::uint8_t
{
    Normal = 0,   ///< ordinary simulation events (FIFO among themselves)
    Failure = 1,  ///< injected faults; delivered after all Normal events
};

/** Lower-case display name of a lane ("normal", "failure"). */
const char* eventLaneName(EventLane lane);

/** One scheduled event; `Kind` is the layer's own event vocabulary. */
template <typename Kind>
struct EngineEvent
{
    TimeUs time_us = 0;
    EventLane lane = EventLane::Normal;
    std::uint64_t seq = 0;  ///< assigned by the core; breaks time ties
    Kind kind{};
    std::uint64_t payload = 0;
    std::uint64_t payload2 = 0;
};

/**
 * One entry of a bulk admission (EventCore::scheduleBatch). Sequence
 * numbers are assigned at admission in array order, so a batch keeps
 * the exact FIFO tie-break it would have had as individual schedule()
 * calls in the same order.
 */
template <typename Kind>
struct EventBatchItem
{
    TimeUs time_us = 0;
    Kind kind{};
    std::uint64_t payload = 0;
    std::uint64_t payload2 = 0;
};

/**
 * Deterministic min-heap of events ordered by (time, lane, seq), laid
 * out as a flat 4-ary heap over an explicit vector so callers can
 * reserve() capacity up front (no mid-run reallocation) and clear()
 * state between runs.
 */
template <typename Kind>
class EventCore
{
  public:
    /** Adopts the calling thread's stashed buffer (capacity reuse). */
    EventCore() { heap_ = acquireStash(); }

    /** Returns the buffer to the thread stash for the next EventCore. */
    ~EventCore() { releaseStash(std::move(heap_)); }

    EventCore(const EventCore&) = delete;
    EventCore& operator=(const EventCore&) = delete;

    /** Schedule an event; its sequence number is assigned here. */
    void schedule(TimeUs time_us, Kind kind, std::uint64_t payload = 0,
                  std::uint64_t payload2 = 0,
                  EventLane lane = EventLane::Normal)
    {
        EngineEvent<Kind> event;
        event.time_us = time_us;
        event.lane = lane;
        event.seq = next_seq_++;
        event.kind = kind;
        event.payload = payload;
        event.payload2 = payload2;
        heap_.push_back(event);
        siftUp(heap_.size() - 1);
    }

    /**
     * Admit a whole setup schedule in one coalesced push. Equivalent to
     * calling schedule() once per item in array order — sequence
     * numbers are assigned in that order, and because (time, lane, seq)
     * is a total order the pop sequence cannot depend on how the heap
     * was built — but the heap is restored once per batch instead of
     * once per item: appended items are sifted individually only while
     * they are few relative to the existing heap; a batch that
     * dominates the heap triggers a single bottom-up (Floyd) rebuild,
     * O(n) instead of O(n log n) sifts.
     */
    void scheduleBatch(const std::vector<EventBatchItem<Kind>>& items,
                       EventLane lane = EventLane::Normal)
    {
        if (items.empty())
            return;
        const std::size_t old_size = heap_.size();
        heap_.reserve(old_size + items.size());
        for (const EventBatchItem<Kind>& item : items) {
            EngineEvent<Kind> event;
            event.time_us = item.time_us;
            event.lane = lane;
            event.seq = next_seq_++;
            event.kind = item.kind;
            event.payload = item.payload;
            event.payload2 = item.payload2;
            heap_.push_back(event);
        }
        if (items.size() < old_size / 4) {
            for (std::size_t i = old_size; i < heap_.size(); ++i)
                siftUp(i);
        } else {
            rebuildHeap();
        }
    }

    /** Shorthand for scheduling into the Failure lane (fault hook). */
    void scheduleFailure(TimeUs time_us, Kind kind,
                         std::uint64_t payload = 0,
                         std::uint64_t payload2 = 0)
    {
        schedule(time_us, kind, payload, payload2, EventLane::Failure);
    }

    /**
     * Bind a cooperative cancellation token (non-owning; null unbinds).
     * Checked on every pop(): a cancelled token throws CancelledError
     * out of the event loop before the next event is delivered.
     */
    void bindCancellation(const CancellationToken* token)
    {
        cancel_token_ = token;
    }

    /**
     * Bind a runtime invariant auditor (non-owning; null or Off
     * unbinds). With an auditor bound, every pop() verifies the
     * delivered (time, lane, seq) strictly follows the previous one —
     * the engine's total-order delivery guarantee, checked live.
     */
    void bindAuditor(Auditor* auditor)
    {
        audit_ =
            auditor != nullptr && auditor->enabled() ? auditor : nullptr;
    }

    /** Pre-size the heap (e.g. from the trace size at setup) so the
     *  run never reallocates mid-flight. */
    void reserve(std::size_t events) { heap_.reserve(events); }

    /** Drop all pending events and reset sequence numbering, so the
     *  next run never observes a stale heap. Keeps capacity. */
    void clear()
    {
        heap_.clear();
        next_seq_ = 0;
        delivered_any_ = false;
    }

    bool empty() const { return heap_.empty(); }

    /** Pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Heap slots currently allocated. */
    std::size_t capacity() const { return heap_.capacity(); }

    /** Timestamp of the next event. @pre !empty(). */
    TimeUs nextTime() const
    {
        assert(!heap_.empty());
        return heap_.front().time_us;
    }

    /**
     * Any pending event strictly before `horizon_us`? The sharded
     * cluster's windowed loop asks this at every barrier to decide
     * whether the next window can be skipped ahead.
     */
    bool hasEventBefore(TimeUs horizon_us) const
    {
        return !heap_.empty() && heap_.front().time_us < horizon_us;
    }

    /**
     * Remove and return the next event. @pre !empty().
     * @throws CancelledError when a bound token is cancelled.
     */
    EngineEvent<Kind> pop()
    {
        assert(!heap_.empty());
        if (cancel_token_ != nullptr)
            cancel_token_->throwIfCancelled();
        const EngineEvent<Kind> event = popRoot();
        if (audit_ != nullptr)
            auditDelivery(event);
        return event;
    }

  private:
    /** Heap order: `a` delivers after `b` (min by time, lane, seq). */
    static bool later(const EngineEvent<Kind>& a, const EngineEvent<Kind>& b)
    {
        if (a.time_us != b.time_us)
            return a.time_us > b.time_us;
        if (a.lane != b.lane)
            return a.lane > b.lane;
        return a.seq > b.seq;
    }

    /** 4-ary sift toward the root: the hole at `i` bubbles up until its
     *  parent is not later than the inserted event. */
    void siftUp(std::size_t i)
    {
        const EngineEvent<Kind> event = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!later(heap_[parent], event))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = event;
    }

    /** 4-ary sift toward the leaves: the hole at `i` sinks, pulling the
     *  earliest of up to four children per level. */
    void siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        const EngineEvent<Kind> event = heap_[i];
        for (;;) {
            const std::size_t first = (i << 2) + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + 4, n);
            for (std::size_t child = first + 1; child < last; ++child) {
                if (later(heap_[best], heap_[child]))
                    best = child;
            }
            if (!later(event, heap_[best]))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = event;
    }

    /** Bottom-up (Floyd) heap construction over the whole vector:
     *  sift every internal node down, deepest parents first. */
    void rebuildHeap()
    {
        const std::size_t n = heap_.size();
        if (n < 2)
            return;
        for (std::size_t i = ((n - 2) >> 2) + 1; i-- > 0;)
            siftDown(i);
    }

    /** Remove and return the root. @pre !heap_.empty(). */
    EngineEvent<Kind> popRoot()
    {
        const EngineEvent<Kind> event = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        return event;
    }

    /**
     * Per-thread buffer stash. One retired heap buffer is kept per
     * thread (per Kind instantiation) and handed to the next EventCore
     * constructed on that thread, so back-to-back sweep cells reuse
     * reserved capacity instead of growing a fresh vector each run.
     * Thread-local, so sweep workers never contend or share buffers.
     */
    static std::vector<EngineEvent<Kind>>& stash()
    {
        static thread_local std::vector<EngineEvent<Kind>> stashed;
        return stashed;
    }

    static std::vector<EngineEvent<Kind>> acquireStash()
    {
        std::vector<EngineEvent<Kind>> buffer;
        buffer.swap(stash());
        buffer.clear();
        return buffer;
    }

    static void releaseStash(std::vector<EngineEvent<Kind>>&& buffer)
    {
        if (buffer.capacity() > stash().capacity()) {
            stash() = std::move(buffer);
            stash().clear();
        }
    }

    /** Audit: delivery must strictly follow (time, lane, seq) order. */
    void auditDelivery(const EngineEvent<Kind>& event)
    {
        if (delivered_any_) {
            const bool ordered =
                event.time_us > last_time_ ||
                (event.time_us == last_time_ &&
                 (event.lane > last_lane_ ||
                  (event.lane == last_lane_ && event.seq > last_seq_)));
            if (!ordered) {
                audit_->fail(
                    "event-order", event.time_us,
                    static_cast<std::int64_t>(event.seq),
                    "delivered (t=" + std::to_string(event.time_us) +
                        ", lane=" +
                        std::to_string(static_cast<int>(event.lane)) +
                        ", seq=" + std::to_string(event.seq) +
                        ") not after (t=" + std::to_string(last_time_) +
                        ", lane=" +
                        std::to_string(static_cast<int>(last_lane_)) +
                        ", seq=" + std::to_string(last_seq_) + ")");
            }
        }
        delivered_any_ = true;
        last_time_ = event.time_us;
        last_lane_ = event.lane;
        last_seq_ = event.seq;
    }

    std::vector<EngineEvent<Kind>> heap_;

    std::uint64_t next_seq_ = 0;
    const CancellationToken* cancel_token_ = nullptr;

    /** Audit state: the last delivered (time, lane, seq). */
    Auditor* audit_ = nullptr;
    bool delivered_any_ = false;
    TimeUs last_time_ = 0;
    EventLane last_lane_ = EventLane::Normal;
    std::uint64_t last_seq_ = 0;
};

/**
 * The simulation clock: current simulated time, advanced monotonically
 * as events are delivered (event queues deliver in time order, so the
 * clock never runs backwards within a run).
 */
class SimClock
{
  public:
    TimeUs now() const { return now_; }

    /** Advance to `t`. @pre t >= now() (time is monotonic). */
    void advanceTo(TimeUs t)
    {
        assert(t >= now_);
        now_ = t;
    }

    /** Rewind for a fresh run. */
    void reset(TimeUs t = 0) { now_ = t; }

  private:
    TimeUs now_ = 0;
};

}  // namespace faascache

#endif  // FAASCACHE_ENGINE_EVENT_ENGINE_H_
