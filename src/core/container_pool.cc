#include "core/container_pool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace faascache {

namespace {

/** Warm-lookup preference: most recent lastUsed, ties to the lowest id. */
bool
warmerThan(const Container& a, const Container& b)
{
    if (a.lastUsed() != b.lastUsed())
        return a.lastUsed() > b.lastUsed();
    return a.id() < b.id();
}

bool
byIdAsc(const Container* a, const Container* b)
{
    return a->id() < b->id();
}

}  // namespace

const char*
poolBackendName(PoolBackend backend)
{
    switch (backend) {
    case PoolBackend::Slab:
        return "slab";
    case PoolBackend::ReferenceMap:
        return "reference";
    }
    return "?";
}

ContainerPool::ContainerPool(MemMb capacity_mb, PoolBackend backend)
    : backend_(backend), capacity_mb_(capacity_mb)
{
    assert(capacity_mb > 0);
}

MemMb
ContainerPool::freeMb() const
{
    return std::max(0.0, capacity_mb_ - used_mb_);
}

MemMb
ContainerPool::idleMb() const
{
    MemMb total = 0;
    forEach([&total](const Container& c) {
        if (c.idle())
            total += c.memMb();
    });
    return total;
}

void
ContainerPool::setCapacityMb(MemMb capacity_mb)
{
    assert(capacity_mb > 0);
    capacity_mb_ = capacity_mb;
}

std::size_t
ContainerPool::idleCount() const
{
    std::size_t n = 0;
    forEach([&n](const Container& c) {
        if (c.idle())
            ++n;
    });
    return n;
}

void
ContainerPool::reserve(std::size_t containers)
{
    released_logged_.reserve(containers);
    if (backend_ == PoolBackend::ReferenceMap) {
        containers_.reserve(containers);
        free_ref_slots_.reserve(containers);
        ref_by_slot_.reserve(containers);
        return;
    }
    const std::size_t chunks = (containers + kChunkSize - 1) / kChunkSize;
    chunks_.reserve(chunks);
    slot_by_id_.reserve(std::max(containers, kMinCompactWindow));
}

std::uint32_t
ContainerPool::slotUpperBound() const
{
    return backend_ == PoolBackend::Slab ? slot_count_ : next_ref_slot_;
}

std::uint32_t
ContainerPool::acquireSlot()
{
    if (free_head_ != kNilSlot) {
        const std::uint32_t slot = free_head_;
        free_head_ = slotAt(slot).next_free;
        return slot;
    }
    if ((slot_count_ >> kChunkShift) == chunks_.size())
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    return slot_count_++;
}

void
ContainerPool::pushList(std::uint32_t& head, std::uint32_t slot)
{
    Slot& s = slotAt(slot);
    s.prev = kNilSlot;
    s.next = head;
    if (head != kNilSlot)
        slotAt(head).prev = slot;
    head = slot;
}

void
ContainerPool::unlinkList(std::uint32_t& head, std::uint32_t slot)
{
    Slot& s = slotAt(slot);
    if (s.prev != kNilSlot)
        slotAt(s.prev).next = s.next;
    else
        head = s.next;
    if (s.next != kNilSlot)
        slotAt(s.next).prev = s.prev;
    s.prev = kNilSlot;
    s.next = kNilSlot;
}

void
ContainerPool::insertIdleSorted(std::uint32_t row, std::uint32_t slot)
{
    std::uint32_t& head = functions_.row(row).idle_head;
    const Container& c = slotAt(slot).container;
    std::uint32_t prev = kNilSlot;
    std::uint32_t cur = head;
    while (cur != kNilSlot && warmerThan(slotAt(cur).container, c)) {
        prev = cur;
        cur = slotAt(cur).next;
    }
    Slot& s = slotAt(slot);
    s.prev = prev;
    s.next = cur;
    if (prev != kNilSlot)
        slotAt(prev).next = slot;
    else
        head = slot;
    if (cur != kNilSlot)
        slotAt(cur).prev = slot;
}

void
ContainerPool::maybeCompactIdWindow()
{
    if (slot_by_id_.size() < compact_at_)
        return;
    std::size_t drop = 0;
    while (drop < slot_by_id_.size() && slot_by_id_[drop] == kNilSlot)
        ++drop;
    if (drop > 0) {
        slot_by_id_.erase(slot_by_id_.begin(),
                          slot_by_id_.begin() + static_cast<long>(drop));
        id_base_ += static_cast<ContainerId>(drop);
    }
    // Double the threshold past the surviving window so a long-lived
    // oldest container cannot make compaction quadratic.
    compact_at_ = std::max(2 * slot_by_id_.size(), kMinCompactWindow);
}

void
ContainerPool::onContainerBusy(Container& c)
{
    if (audit_ != nullptr) {
        // The only legal path into Busy is startInvocation() on an idle
        // container, which stamps lastUsed = now and busyUntil >= now.
        audit_->require(c.busy(), "container-transition", c.lastUsed(),
                        static_cast<std::int64_t>(c.id()),
                        "busy hook fired on a container not in the "
                        "Busy state");
        audit_->require(c.busyUntil() >= c.lastUsed(),
                        "container-transition", c.lastUsed(),
                        static_cast<std::int64_t>(c.id()),
                        "invocation completes before it starts "
                        "(busyUntil < lastUsed)");
    }
    if (backend_ != PoolBackend::Slab)
        return;
    const std::uint32_t slot = c.pool_slot_;
    unlinkList(functions_.row(c.pool_row_).idle_head, slot);
    pushList(busy_head_, slot);
}

void
ContainerPool::onContainerIdle(Container& c)
{
    if (audit_ != nullptr) {
        audit_->require(c.idle(), "container-transition", c.lastUsed(),
                        static_cast<std::int64_t>(c.id()),
                        "idle hook fired on a container not in the "
                        "Idle state");
    }
    const std::uint32_t slot = c.pool_slot_;
    logRelease(slot);
    if (backend_ != PoolBackend::Slab)
        return;
    unlinkList(busy_head_, slot);
    insertIdleSorted(c.pool_row_, slot);
}

Container&
ContainerPool::add(const FunctionSpec& function, TimeUs now, bool prewarmed)
{
    assert(fits(function.mem_mb));
    const ContainerId id = next_id_++;
    used_mb_ += function.mem_mb;
    ++size_;

    if (backend_ == PoolBackend::ReferenceMap) {
        auto container =
            std::make_unique<Container>(id, function, now, prewarmed);
        Container& ref = *container;
        std::uint32_t slot = next_ref_slot_;
        if (!free_ref_slots_.empty()) {
            slot = free_ref_slots_.back();
            free_ref_slots_.pop_back();
        } else {
            ++next_ref_slot_;
            ref_by_slot_.push_back(nullptr);
            released_logged_.push_back(0);
        }
        ref.bindPool(this, slot);
        ref_by_slot_[slot] = &ref;
        logRelease(slot);
        containers_.emplace(id, std::move(container));
        by_function_[function.id].push_back(&ref);
        return ref;
    }

    const std::uint32_t slot = acquireSlot();
    if (slot == released_logged_.size())
        released_logged_.push_back(0);
    logRelease(slot);
    Slot& s = slotAt(slot);
    s.container = Container(id, function, now, prewarmed);
    s.container.bindPool(this, slot);
    s.live = true;
    const std::uint32_t row = functions_.rowOf(function.id);
    s.container.pool_row_ = row;
    insertIdleSorted(row, slot);
    ++functions_.row(row).count;

    // Ids are sequential, so the new id always lands one past the window.
    assert(id - id_base_ == slot_by_id_.size());
    slot_by_id_.push_back(slot);
    return s.container;
}

void
ContainerPool::remove(ContainerId id)
{
    if (backend_ == PoolBackend::ReferenceMap) {
        auto it = containers_.find(id);
        assert(it != containers_.end());
        assert(it->second->idle());
        Container* raw = it->second.get();
        auto& vec = by_function_[raw->function()];
        // Swap-remove: by_function_ order is not meaningful (warm lookup
        // scans for an explicit best), so O(1) beats the old O(n) erase.
        auto pos = std::find(vec.begin(), vec.end(), raw);
        assert(pos != vec.end());
        *pos = vec.back();
        vec.pop_back();
        if (vec.empty())
            by_function_.erase(raw->function());
        used_mb_ -= raw->memMb();
        if (used_mb_ < 0)
            used_mb_ = 0;  // defend against float drift
        free_ref_slots_.push_back(raw->poolSlot());
        ref_by_slot_[raw->poolSlot()] = nullptr;
        containers_.erase(it);
        --size_;
        return;
    }

    assert(id >= id_base_ && id < next_id_);
    const std::uint32_t slot =
        slot_by_id_[static_cast<std::size_t>(id - id_base_)];
    assert(slot != kNilSlot);
    Slot& s = slotAt(slot);
    assert(s.live);
    assert(s.container.idle());
    FunctionSlots& fs = functions_.row(s.container.pool_row_);
    unlinkList(fs.idle_head, slot);
    --fs.count;
    used_mb_ -= s.container.memMb();
    if (used_mb_ < 0)
        used_mb_ = 0;  // defend against float drift
    slot_by_id_[static_cast<std::size_t>(id - id_base_)] = kNilSlot;
    s.live = false;
    s.container = Container();
    s.next_free = free_head_;
    free_head_ = slot;
    --size_;
    maybeCompactIdWindow();
}

Container*
ContainerPool::get(ContainerId id)
{
    if (backend_ == PoolBackend::ReferenceMap) {
        auto it = containers_.find(id);
        return it == containers_.end() ? nullptr : it->second.get();
    }
    if (id < id_base_ || id >= next_id_)
        return nullptr;
    const std::uint32_t slot =
        slot_by_id_[static_cast<std::size_t>(id - id_base_)];
    return slot == kNilSlot ? nullptr : &slotAt(slot).container;
}

const Container*
ContainerPool::get(ContainerId id) const
{
    return const_cast<ContainerPool*>(this)->get(id);
}

Container*
ContainerPool::findIdleWarm(FunctionId function)
{
    if (backend_ == PoolBackend::ReferenceMap) {
        auto it = by_function_.find(function);
        if (it == by_function_.end())
            return nullptr;
        Container* best = nullptr;
        for (Container* c : it->second) {
            if (!c->idle())
                continue;
            if (best == nullptr || warmerThan(*c, *best))
                best = c;
        }
        return best;
    }
    // The idle list is sorted warmest-first, so the head is the answer.
    const FunctionSlots* fs = functions_.find(function);
    return fs == nullptr || fs->idle_head == kNilSlot
        ? nullptr
        : &slotAt(fs->idle_head).container;
}

std::vector<const Container*>
ContainerPool::containersOf(FunctionId function) const
{
    std::vector<const Container*> out;
    if (backend_ == PoolBackend::ReferenceMap) {
        auto it = by_function_.find(function);
        if (it != by_function_.end())
            out.assign(it->second.begin(), it->second.end());
    } else {
        forEach([&](const Container& c) {
            if (c.function() == function)
                out.push_back(&c);
        });
    }
    std::sort(out.begin(), out.end(), byIdAsc);
    return out;
}

std::size_t
ContainerPool::countOf(FunctionId function) const
{
    if (backend_ == PoolBackend::ReferenceMap) {
        auto it = by_function_.find(function);
        return it == by_function_.end() ? 0 : it->second.size();
    }
    const FunctionSlots* fs = functions_.find(function);
    return fs == nullptr ? 0 : fs->count;
}

std::vector<Container*>
ContainerPool::idleContainers()
{
    std::vector<Container*> out;
    out.reserve(size_);
    forEach([&out](Container& c) {
        if (c.idle())
            out.push_back(&c);
    });
    // Deterministic order independent of backend enumeration.
    std::sort(out.begin(), out.end(), byIdAsc);
    return out;
}

std::vector<const Container*>
ContainerPool::idleContainers() const
{
    std::vector<const Container*> out;
    out.reserve(size_);
    forEach([&out](const Container& c) {
        if (c.idle())
            out.push_back(&c);
    });
    std::sort(out.begin(), out.end(), byIdAsc);
    return out;
}

void
ContainerPool::auditInvariants(Auditor& audit, TimeUs now) const
{
    // Shared accounting: memory and population recomputed from a full
    // walk must match the incrementally maintained totals.
    MemMb mem = 0;
    std::size_t live = 0;
    std::size_t busy = 0;
    FunctionTable<std::size_t> per_fn_live;
    forEach([&](const Container& c) {
        mem += c.memMb();
        ++live;
        if (c.busy())
            ++busy;
        ++per_fn_live[c.function()];
    });
    const double eps = 1e-6 * std::max(1.0, std::abs(used_mb_)) + 1e-6;
    if (std::abs(mem - used_mb_) > eps) {
        audit.fail("pool-memory-accounting", now, -1,
                   "sum of live container memory " + std::to_string(mem) +
                       " MB != tracked used " + std::to_string(used_mb_) +
                       " MB");
    }
    audit.require(used_mb_ > -eps, "pool-memory-accounting", now, -1,
                  "tracked used memory is negative");
    if (live != size_) {
        audit.fail("pool-size-accounting", now, -1,
                   "walk found " + std::to_string(live) +
                       " live containers, tracked size is " +
                       std::to_string(size_));
    }

    // Release log: one flagged entry per logged slot, so it never
    // outgrows the slots handed out.
    const std::uint32_t slots = slotUpperBound();
    const auto flagged = static_cast<std::size_t>(std::count(
        released_logged_.begin(), released_logged_.end(), 1));
    audit.require(released_logged_.size() == slots &&
                      flagged == released_.size(),
                  "pool-release-log", now, -1,
                  "release log size disagrees with its slot flags");
    for (const std::uint32_t slot : released_) {
        audit.require(slot < slots && released_logged_[slot] == 1,
                      "pool-release-log", now,
                      static_cast<std::int64_t>(slot),
                      "release log holds an unflagged slot");
    }

    if (backend_ == PoolBackend::ReferenceMap) {
        audit.require(containers_.size() == size_,
                      "pool-size-accounting", now, -1,
                      "id map size disagrees with tracked size");
        std::size_t indexed = 0;
        for (const auto& [fn, vec] : by_function_) {
            audit.require(!vec.empty(), "pool-index-consistency", now,
                          static_cast<std::int64_t>(fn),
                          "per-function index holds an empty list");
            for (const Container* c : vec) {
                ++indexed;
                if (c->function() != fn) {
                    audit.fail("pool-index-consistency", now,
                               static_cast<std::int64_t>(c->id()),
                               "container filed under function " +
                                   std::to_string(fn) + " belongs to " +
                                   std::to_string(c->function()));
                }
                auto it = containers_.find(c->id());
                audit.require(it != containers_.end() &&
                                  it->second.get() == c,
                              "pool-index-consistency", now,
                              static_cast<std::int64_t>(c->id()),
                              "per-function index points at a container "
                              "absent from the id map");
            }
        }
        audit.require(indexed == size_, "pool-index-consistency", now, -1,
                      "per-function index population disagrees with "
                      "tracked size");
        return;
    }

    // Slab: free + live slots partition everything ever carved.
    std::size_t free_slots = 0;
    for (std::uint32_t s = free_head_; s != kNilSlot;
         s = slotAt(s).next_free) {
        ++free_slots;
        audit.require(!slotAt(s).live, "pool-slot-accounting", now,
                      static_cast<std::int64_t>(s),
                      "free-list slot is marked live");
        if (free_slots > slot_count_)
            break;  // cycle guard: the count check below reports it
    }
    if (free_slots + live != slot_count_) {
        audit.fail("pool-slot-accounting", now, -1,
                   "free (" + std::to_string(free_slots) + ") + live (" +
                       std::to_string(live) +
                       ") slots != slots carved (" +
                       std::to_string(slot_count_) + ")");
    }

    // Busy list: every node live and busy; covers all busy containers.
    std::size_t busy_listed = 0;
    for (std::uint32_t s = busy_head_; s != kNilSlot;
         s = slotAt(s).next) {
        ++busy_listed;
        const Slot& slot = slotAt(s);
        audit.require(slot.live && slot.container.busy(),
                      "pool-busy-list", now,
                      static_cast<std::int64_t>(slot.container.id()),
                      "busy-list node is not a live busy container");
        if (busy_listed > slot_count_)
            break;
    }
    audit.require(busy_listed == busy, "pool-busy-list", now, -1,
                  "busy list does not cover every busy container");

    // Per-function idle lists: live, idle, right function, sorted
    // warmest-first; together with the busy count they partition the
    // live population.
    std::size_t idle_listed = 0;
    functions_.forEachById([&](FunctionId fn, const FunctionSlots& fs) {
        const Container* prev = nullptr;
        for (std::uint32_t s = fs.idle_head; s != kNilSlot;
             s = slotAt(s).next) {
            ++idle_listed;
            const Slot& slot = slotAt(s);
            const Container& c = slot.container;
            audit.require(slot.live && c.idle() && c.function() == fn,
                          "pool-idle-list", now,
                          static_cast<std::int64_t>(c.id()),
                          "idle-list node is not a live idle container "
                          "of its function");
            if (prev != nullptr && warmerThan(c, *prev)) {
                audit.fail("pool-idle-list", now,
                           static_cast<std::int64_t>(c.id()),
                           "idle list of function " + std::to_string(fn) +
                               " is not sorted warmest-first");
            }
            prev = &c;
            if (idle_listed > slot_count_)
                break;
        }
        const std::size_t* counted = per_fn_live.find(fn);
        const std::size_t expect = counted != nullptr ? *counted : 0;
        if (fs.count != expect) {
            audit.fail("pool-fn-count", now,
                       static_cast<std::int64_t>(fn),
                       "per-function count " + std::to_string(fs.count) +
                           " != live containers " +
                           std::to_string(expect));
        }
    });
    audit.require(idle_listed + busy == live, "pool-idle-list", now, -1,
                  "idle lists + busy list do not partition the live "
                  "population");

    // Every container's cached row is its function's row.
    forEach([&](const Container& c) {
        audit.require(c.pool_row_ < functions_.size() &&
                          &functions_.row(c.pool_row_) ==
                              functions_.find(c.function()),
                      "pool-row-cache", now,
                      static_cast<std::int64_t>(c.id()),
                      "container's cached function row is not its "
                      "function's row");
    });

    // Dense id→slot map round-trips: every window entry either dead or
    // pointing at the live container with that id.
    std::size_t mapped = 0;
    for (std::size_t i = 0; i < slot_by_id_.size(); ++i) {
        const std::uint32_t s = slot_by_id_[i];
        if (s == kNilSlot)
            continue;
        ++mapped;
        const ContainerId id = id_base_ + static_cast<ContainerId>(i);
        const Slot& slot = slotAt(s);
        if (!slot.live || slot.container.id() != id) {
            audit.fail("pool-id-map", now,
                       static_cast<std::int64_t>(id),
                       "id map entry does not point at the live "
                       "container with that id");
        }
    }
    audit.require(mapped == size_, "pool-id-map", now, -1,
                  "id map population disagrees with tracked size");
}

std::vector<Container*>
ContainerPool::releaseFinished(TimeUs now)
{
    std::vector<Container*> released;
    if (backend_ == PoolBackend::ReferenceMap) {
        for (auto& [id, c] : containers_) {
            if (c->busy() && c->busyUntil() <= now) {
                c->finishInvocation();
                released.push_back(c.get());
            }
        }
    } else {
        // Collect first: finishInvocation relinks the busy list.
        for (std::uint32_t slot = busy_head_; slot != kNilSlot;
             slot = slotAt(slot).next) {
            Container& c = slotAt(slot).container;
            if (c.busyUntil() <= now)
                released.push_back(&c);
        }
        for (Container* c : released)
            c->finishInvocation();
    }
    std::sort(released.begin(), released.end(), byIdAsc);
    return released;
}

}  // namespace faascache
