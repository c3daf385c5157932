#include "core/greedy_dual.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace faascache {

namespace {

/** Lexicographic (priority, lastUsed, id) — the eviction order. */
struct TripleLess
{
    bool
    operator()(double pa, TimeUs la, ContainerId ia, double pb, TimeUs lb,
               ContainerId ib) const
    {
        if (pa != pb)
            return pa < pb;
        if (la != lb)
            return la < lb;
        return ia < ib;
    }
};

}  // namespace

GreedyDualPolicy::GreedyDualPolicy(GreedyDualConfig config) : config_(config)
{
}

void
GreedyDualPolicy::reserveFunctions(std::size_t n)
{
    KeepAlivePolicy::reserveFunctions(n);
    characteristics_.reserve(n);
}

double
GreedyDualPolicy::valueTerm(FunctionId function) const
{
    if (function >= characteristics_.size() ||
        characteristics_[function].size == 0.0) {
        return 0.0;
    }
    const CostSize& cs = characteristics_[function];
    const double freq = config_.use_frequency
        ? static_cast<double>(std::max<std::int64_t>(
              1, stats_.of(function).frequency))
        : 1.0;
    const double cost = config_.use_cost ? cs.cost_sec : 1.0;
    const double size = config_.use_size ? cs.size : 1.0;
    return freq * cost / size;
}

double
GreedyDualPolicy::scalarSizeOf(const FunctionSpec& function) const
{
    return scalarSize(resourceVectorOf(function), config_.server_resources,
                      config_.size_norm);
}

double
GreedyDualPolicy::priorityOf(const FunctionSpec& function) const
{
    const double freq = config_.use_frequency
        ? static_cast<double>(std::max<std::int64_t>(
              1, stats_.of(function.id).frequency))
        : 1.0;
    const double cost =
        config_.use_cost ? toSeconds(function.initTime()) : 1.0;
    const double size = config_.use_size ? scalarSizeOf(function) : 1.0;
    return clock_ + freq * cost / size;
}

void
GreedyDualPolicy::touch(Container& container, const FunctionSpec& function)
{
    assert(function.mem_mb > 0);
    if (function.id >= characteristics_.size()) {
        characteristics_.resize(std::max<std::size_t>(
            static_cast<std::size_t>(function.id) + 1,
            characteristics_.size() * 2));
    }
    characteristics_[function.id] =
        CostSize{toSeconds(function.initTime()), scalarSizeOf(function)};
    assert(characteristics_[function.id].size > 0.0);
    container.setPolicyClock(clock_);
    container.setPriority(clock_ + valueTerm(function.id));
    if (config_.eviction_engine == GdEvictionEngine::LazyHeap) {
        // Drivers start the invocation before this hook, so busyUntil is
        // set: the container waits outside the priority heap until then.
        parkEntry(container, claimSeq(container.poolSlot()));
        maybeCompact();
    }
}

void
GreedyDualPolicy::onWarmStart(Container& container,
                              const FunctionSpec& function, TimeUs)
{
    touch(container, function);
}

void
GreedyDualPolicy::onColdStart(Container& container,
                              const FunctionSpec& function, TimeUs)
{
    touch(container, function);
}

void
GreedyDualPolicy::onEviction(const Container& container,
                             bool last_of_function, TimeUs now)
{
    // Superseding rather than erasing from the middle of the heap: any
    // remaining entries for this container become stale and are skipped
    // on pop.
    dropEntry(container.poolSlot());
    KeepAlivePolicy::onEviction(container, last_of_function, now);
}

double
GreedyDualPolicy::containerPriority(const Container& container) const
{
    return container.policyClock() + valueTerm(container.function());
}

bool
GreedyDualPolicy::entryAfter(const HeapEntry& a, const HeapEntry& b)
{
    return TripleLess{}(b.priority, b.last_used, b.id, a.priority,
                        a.last_used, a.id);
}

bool
GreedyDualPolicy::parkedAfter(const ParkedEntry& a, const ParkedEntry& b)
{
    if (a.busy_until != b.busy_until)
        return a.busy_until > b.busy_until;
    return a.id > b.id;
}

bool
GreedyDualPolicy::isLive(std::uint32_t slot, std::uint64_t seq) const
{
    return slot < entry_seq_.size() && entry_seq_[slot] == seq;
}

void
GreedyDualPolicy::dropEntry(std::uint32_t slot)
{
    if (slot < entry_seq_.size() && entry_seq_[slot] != 0) {
        entry_seq_[slot] = 0;
        --live_entries_;
    }
}

std::uint64_t
GreedyDualPolicy::claimSeq(std::uint32_t slot)
{
    if (slot >= entry_seq_.size()) {
        entry_seq_.resize(std::max<std::size_t>(
            static_cast<std::size_t>(slot) + 1, entry_seq_.size() * 2), 0);
    }
    if (entry_seq_[slot] == 0)
        ++live_entries_;
    entry_seq_[slot] = next_seq_;
    return next_seq_++;
}

void
GreedyDualPolicy::pushEntry(const Container& c, std::uint64_t seq)
{
    heap_.push_back(HeapEntry{containerPriority(c), c.lastUsed(), c.id(), seq,
                              c.poolSlot()});
    std::push_heap(heap_.begin(), heap_.end(), &entryAfter);
}

void
GreedyDualPolicy::parkEntry(const Container& c, std::uint64_t seq)
{
    parked_.push_back(ParkedEntry{c.busyUntil(), c.id(), seq, c.poolSlot()});
    std::push_heap(parked_.begin(), parked_.end(), &parkedAfter);
}

void
GreedyDualPolicy::maybeCompact()
{
    const std::size_t total = heap_.size() + parked_.size();
    if (total < 64 || total < 4 * live_entries_)
        return;
    std::erase_if(heap_, [this](const HeapEntry& e) {
        return !isLive(e.slot, e.seq);
    });
    std::erase_if(parked_, [this](const ParkedEntry& e) {
        return !isLive(e.slot, e.seq);
    });
    std::make_heap(heap_.begin(), heap_.end(), &entryAfter);
    std::make_heap(parked_.begin(), parked_.end(), &parkedAfter);
}

void
GreedyDualPolicy::admitReleased(const ContainerPool& pool, TimeUs now)
{
    std::vector<std::pair<const Container*, std::uint64_t>> overdue;
    while (!parked_.empty()) {
        const ParkedEntry e = parked_.front();
        const bool live = isLive(e.slot, e.seq);
        const Container* c = live ? pool.get(e.id) : nullptr;
        if (c != nullptr && c->busy() && c->busyUntil() == e.busy_until &&
            e.busy_until > now) {
            // Containers go idle no earlier than their busyUntil, and
            // drivers release every container due by `now` before
            // searching (bar same-timestamp ties, handled below), so
            // everything parked behind this entry is still busy.
            break;
        }
        std::pop_heap(parked_.begin(), parked_.end(), &parkedAfter);
        parked_.pop_back();
        if (!live)
            continue;  // superseded or already evicted
        if (c == nullptr)
            dropEntry(e.slot);  // removed without onEviction (defensive)
        else if (c->idle())
            pushEntry(*c, e.seq);
        else if (c->busyUntil() != e.busy_until)
            parkEntry(*c, e.seq);  // restarted without a hook: re-key
        else
            overdue.emplace_back(c, e.seq);  // due, Finish not delivered
    }
    for (const auto& [c, seq] : overdue)
        parkEntry(*c, seq);
}

std::vector<ContainerId>
GreedyDualPolicy::selectVictims(ContainerPool& pool, MemMb needed_mb,
                                TimeUs now)
{
    if (config_.eviction_engine == GdEvictionEngine::SortReference)
        return selectVictimsSort(pool, needed_mb);
    admitReleased(pool, now);
    return selectVictimsHeap(pool, needed_mb);
}

std::vector<ContainerId>
GreedyDualPolicy::selectVictimsSort(ContainerPool& pool, MemMb needed_mb)
{
    // Eviction batching: free up to the configured threshold in one
    // slow-path pass.
    const MemMb target =
        std::max(needed_mb, config_.batch_free_mb - pool.freeMb());

    std::vector<Container*> idle = pool.idleContainers();
    for (Container* c : idle)
        c->setPriority(containerPriority(*c));
    std::sort(idle.begin(), idle.end(),
              [](const Container* a, const Container* b) {
                  if (a->priority() != b->priority())
                      return a->priority() < b->priority();
                  if (a->lastUsed() != b->lastUsed())
                      return a->lastUsed() < b->lastUsed();
                  return a->id() < b->id();
              });

    std::vector<ContainerId> victims;
    MemMb freed = 0;
    double max_evicted_priority = clock_;
    for (const Container* c : idle) {
        if (freed >= target)
            break;
        victims.push_back(c->id());
        freed += c->memMb();
        max_evicted_priority = std::max(max_evicted_priority, c->priority());
    }
    // Clock advances to the highest evicted priority (paper §4.1:
    // Clock = max over the evicted set).
    if (freed >= needed_mb && !victims.empty())
        clock_ = max_evicted_priority;
    return victims;
}

std::vector<ContainerId>
GreedyDualPolicy::selectVictimsHeap(ContainerPool& pool, MemMb needed_mb)
{
    const MemMb target =
        std::max(needed_mb, config_.batch_free_mb - pool.freeMb());

    std::vector<ContainerId> victims;
    std::vector<std::pair<const Container*, std::uint64_t>> selected;
    MemMb freed = 0;
    double max_evicted_priority = clock_;
    while (freed < target && !heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), &entryAfter);
        const HeapEntry e = heap_.back();
        heap_.pop_back();
        if (!isLive(e.slot, e.seq))
            continue;  // superseded or already evicted
        Container* c = pool.get(e.id);
        if (c == nullptr) {
            // Removed without an onEviction notification (defensive).
            dropEntry(e.slot);
            continue;
        }
        if (c->busy()) {
            // Restarted without a hook since admission: not a candidate
            // until it is released again.
            parkEntry(*c, e.seq);
            continue;
        }
        const double current = containerPriority(*c);
        if (current != e.priority || c->lastUsed() != e.last_used) {
            // Key grew since the snapshot (frequency moved on): re-key
            // and keep popping. The re-pushed key is exact, so the entry
            // competes at its true priority from now on.
            c->setPriority(current);
            pushEntry(*c, e.seq);
            continue;
        }
        // Key matches the container's current triple, and every other
        // candidate's key is a lower bound of its own triple, so this
        // is exactly the sort engine's next victim.
        c->setPriority(current);
        victims.push_back(e.id);
        selected.emplace_back(c, e.seq);
        freed += c->memMb();
        max_evicted_priority = std::max(max_evicted_priority, current);
    }
    // Victims are only *proposed*: the driver declines them (dropping
    // the request) when even this best effort cannot cover needed_mb.
    // Re-insert everything popped; an actual eviction invalidates the
    // entry through onEviction.
    for (const auto& [c, seq] : selected)
        pushEntry(*c, seq);
    if (freed >= needed_mb && !victims.empty())
        clock_ = max_evicted_priority;
    return victims;
}

}  // namespace faascache
