/**
 * @file
 * The prioritized ContainerPool (paper §6).
 *
 * Tracks all live containers on a server against a memory capacity.
 * Following the FaasCache implementation, the pool is not kept sorted by
 * priority on the invocation fast path; policies rank candidates only
 * when an eviction is needed.
 *
 * Two interchangeable backends (DESIGN.md §4d):
 *
 *  - PoolBackend::Slab (default): containers live in a chunked slab
 *    arena of recycled slots with stable addresses. Each function's
 *    intrusive idle list is kept sorted warmest-first (lastUsed is
 *    immutable while a container is idle), so warm lookup is O(1);
 *    invocation completion walks an intrusive global busy list.
 *    Add/remove/busy/idle transitions are allocation-free in steady
 *    state.
 *
 *  - PoolBackend::ReferenceMap: the original hash-map pool, kept as a
 *    differential-testing oracle (mirroring the Greedy-Dual heap-vs-sort
 *    pattern).
 *
 * Both backends are observably identical: same container ids, same
 * warm-container choice (most recent lastUsed, ties to the lowest id),
 * and deterministic orderings on every enumeration a policy result can
 * depend on.
 */
#ifndef FAASCACHE_CORE_CONTAINER_POOL_H_
#define FAASCACHE_CORE_CONTAINER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/container.h"
#include "trace/function_spec.h"
#include "util/audit.h"
#include "util/function_table.h"
#include "util/types.h"

namespace faascache {

/** Storage strategy for the container pool. */
enum class PoolBackend : std::uint8_t {
    /** Slab arena + intrusive lists (fast path, default). */
    Slab,
    /** Original unordered_map pool (reference oracle). */
    ReferenceMap,
};

/** Stable lowercase name ("slab" / "reference") for configs and logs. */
const char* poolBackendName(PoolBackend backend);

/** Set of live containers bounded by server memory. */
class ContainerPool
{
  public:
    /** @param capacity_mb Total keep-alive cache memory, MB (> 0). */
    explicit ContainerPool(MemMb capacity_mb,
                           PoolBackend backend = PoolBackend::Slab);

    /** Containers hold back-pointers into the pool; it must not move. */
    ContainerPool(const ContainerPool&) = delete;
    ContainerPool& operator=(const ContainerPool&) = delete;

    PoolBackend backend() const { return backend_; }

    MemMb capacityMb() const { return capacity_mb_; }

    /** Memory consumed by all live containers (busy + warm). */
    MemMb usedMb() const { return used_mb_; }

    /** Remaining capacity; zero if the pool is (over-)full. */
    MemMb freeMb() const;

    /** Memory held by idle containers (the reclaimable part). */
    MemMb idleMb() const;

    /**
     * Change the capacity (elastic scaling). May leave the pool over
     * capacity; the caller is expected to evict down to fit (cascade
     * deflation shrinks the pool first, §6).
     */
    void setCapacityMb(MemMb capacity_mb);

    /** Whether a container of `mem_mb` MB fits right now. */
    bool fits(MemMb mem_mb) const { return used_mb_ + mem_mb <= capacity_mb_; }

    /** Number of live containers. */
    std::size_t size() const { return size_; }

    /** Number of idle containers. */
    std::size_t idleCount() const;

    /**
     * Pre-size internal storage for `containers` concurrent containers.
     * Purely an allocation hint; growing past it is always safe.
     * Per-function state is sized by the functions actually added.
     */
    void reserve(std::size_t containers);

    /**
     * Exclusive upper bound on Container::poolSlot() values handed out
     * so far. Policies size slot-indexed side tables from this; it only
     * grows.
     */
    std::uint32_t slotUpperBound() const;

    /**
     * Create a container for `function`.
     * @pre fits(function.mem_mb).
     * @return Reference valid until the container is removed.
     */
    Container& add(const FunctionSpec& function, TimeUs now,
                   bool prewarmed = false);

    /** Destroy a container. @pre it exists and is idle. */
    void remove(ContainerId id);

    /** Look up by id; nullptr if absent. */
    Container* get(ContainerId id);
    const Container* get(ContainerId id) const;

    /**
     * An idle warm container for `function`, preferring the most
     * recently used one (ties to the lowest id); nullptr if none.
     */
    Container* findIdleWarm(FunctionId function);

    /** All containers of one function (busy and idle), ordered by id. */
    std::vector<const Container*> containersOf(FunctionId function) const;

    /** Number of live containers (busy + idle) for `function`. */
    std::size_t countOf(FunctionId function) const;

    /** Pointers to all idle containers, ordered by id. */
    std::vector<Container*> idleContainers();
    std::vector<const Container*> idleContainers() const;

    /**
     * Visit every container (order is backend-specific: slab slot order,
     * or the reference map's bucket order). Inline so a per-container
     * visit costs no indirect call.
     */
    template <typename Fn>
    void forEach(Fn&& fn)
    {
        forEachLive(*this, fn);
    }
    template <typename Fn>
    void forEach(Fn&& fn) const
    {
        forEachLive(*this, [&fn](const Container& c) { fn(c); });
    }

    /**
     * Visit, in log order, every container that went idle since the
     * last drain and is still live and idle now, then empty the log.
     *
     * The pool logs a slot whenever its container goes idle: at
     * finishInvocation() and at add(), since containers are created
     * idle. A slot is logged at most once between drains however often
     * it is released, so the log never exceeds slotUpperBound() even
     * when nothing drains it. A drain reports whatever container lives
     * in a logged slot now, so a slot recycled since it was logged
     * reports its new occupant, and a container busy at the drain is
     * skipped until its next release logs it again. Greedy-Dual drains
     * the log at every search to learn which containers became
     * candidates; other policies leave it alone.
     *
     * `fn(Container&)` must not add, remove, start or finish
     * containers.
     */
    template <typename Fn>
    void drainReleased(Fn&& fn)
    {
        for (const std::uint32_t slot : released_) {
            released_logged_[slot] = 0;
            Container* c = containerAtSlot(slot);
            if (c != nullptr && c->idle())
                fn(*c);
        }
        released_.clear();
    }

    /** Slots in the release log (tests and introspection); never more
     *  than slotUpperBound(). */
    std::size_t releaseLogSize() const { return released_.size(); }

    /**
     * Transition every busy container whose invocation completed by
     * `now` to idle.
     * @return Containers released this call, ordered by id.
     */
    std::vector<Container*> releaseFinished(TimeUs now);

    /**
     * Attach a runtime invariant auditor (non-owning; null or Off
     * detaches). With an auditor attached, busy/idle transition hooks
     * verify container state-machine legality; auditInvariants() runs
     * the deep structural walk. Null = zero overhead.
     */
    void setAuditor(Auditor* auditor)
    {
        audit_ =
            auditor != nullptr && auditor->enabled() ? auditor : nullptr;
    }

    /**
     * Deep structural audit (util/audit.h): used memory equals the sum
     * over live containers, live == busy + idle, slab free/busy/idle
     * lists partition the slots, per-function idle lists stay
     * warmest-first and agree with the per-function counts, and the
     * dense id→slot map round-trips, and the release log holds each
     * flagged slot once. Reference backend: the id map and
     * per-function index agree. O(slots) — call from periodic
     * maintenance, not per event.
     */
    void auditInvariants(Auditor& audit, TimeUs now) const;

  private:
    friend class Container;

    /** Null link / empty list head in the intrusive lists. */
    static constexpr std::uint32_t kNilSlot = 0xffffffffu;
    /** Slab chunk geometry: 256 containers per chunk. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
    /** Smallest id-window size that triggers prefix compaction. */
    static constexpr std::size_t kMinCompactWindow = 1024;

    /**
     * One slab cell. A live slot is on exactly one intrusive list: its
     * function's idle list when the container is idle, the global busy
     * list while an invocation runs. Dead slots chain on the free list.
     */
    struct Slot
    {
        Container container;
        std::uint32_t prev = kNilSlot;
        std::uint32_t next = kNilSlot;
        std::uint32_t next_free = kNilSlot;
        bool live = false;
    };

    Slot& slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }
    const Slot& slotAt(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    /** Slab per-function state: the head of the function's idle list
     *  (kNilSlot when empty) and its live container count. */
    struct FunctionSlots
    {
        std::uint32_t idle_head = kNilSlot;
        std::uint32_t count = 0;
    };

    /** Take a slot from the free list, allocating a chunk if needed. */
    std::uint32_t acquireSlot();

    /** Push `slot` onto the list rooted at `head`. */
    void pushList(std::uint32_t& head, std::uint32_t slot);
    /**
     * Insert `slot` into the idle list of its function's row `row`,
     * keeping the list sorted warmest-first. A newly idle container's
     * lastUsed is its invocation start time, so it usually outranks (or
     * nearly outranks) everything already idle and the walk stays short.
     */
    void insertIdleSorted(std::uint32_t row, std::uint32_t slot);
    /** Remove `slot` from the list rooted at `head`. */
    void unlinkList(std::uint32_t& head, std::uint32_t slot);

    /** The walk behind both forEach overloads (Self is const or not). */
    template <typename Self, typename Fn>
    static void forEachLive(Self& self, Fn&& fn)
    {
        if (self.backend_ == PoolBackend::ReferenceMap) {
            for (auto& entry : self.containers_)
                fn(*entry.second);
            return;
        }
        for (std::uint32_t slot = 0; slot < self.slot_count_; ++slot) {
            auto& s = self.slotAt(slot);
            if (s.live)
                fn(s.container);
        }
    }

    /** The live container in `slot`, or nullptr (either backend). */
    Container* containerAtSlot(std::uint32_t slot)
    {
        if (backend_ == PoolBackend::ReferenceMap)
            return ref_by_slot_[slot];
        Slot& s = slotAt(slot);
        return s.live ? &s.container : nullptr;
    }

    /** Append `slot` to the release log unless it is already there. */
    void logRelease(std::uint32_t slot)
    {
        if (released_logged_[slot] == 0) {
            released_logged_[slot] = 1;
            released_.push_back(slot);
        }
    }

    /** Drop the dead prefix of the id→slot window (amortized O(1)). */
    void maybeCompactIdWindow();

    /** Container state-change hooks (slab list maintenance). */
    void onContainerBusy(Container& c);
    void onContainerIdle(Container& c);

    PoolBackend backend_;
    MemMb capacity_mb_;
    MemMb used_mb_ = 0;
    Auditor* audit_ = nullptr;
    ContainerId next_id_ = 1;
    std::size_t size_ = 0;

    /** Release log (drainReleased): slots whose container went idle
     *  since the last drain, each once; released_logged_[slot] marks
     *  membership and is sized to slotUpperBound(). */
    std::vector<std::uint32_t> released_;
    std::vector<std::uint8_t> released_logged_;

    // --- Slab backend ---
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slot_count_ = 0;     ///< Slots ever carved from chunks.
    std::uint32_t free_head_ = kNilSlot;
    std::uint32_t busy_head_ = kNilSlot;
    /** Per-function idle lists and live counts, sized by use; each
     *  container caches its row (Container::pool_row_). */
    FunctionTable<FunctionSlots> functions_;
    /** id→slot, indexed by (id - id_base_); kNilSlot for dead ids. */
    std::vector<std::uint32_t> slot_by_id_;
    ContainerId id_base_ = 1;
    std::size_t compact_at_ = kMinCompactWindow;

    // --- ReferenceMap backend ---
    std::unordered_map<ContainerId, std::unique_ptr<Container>> containers_;
    std::unordered_map<FunctionId, std::vector<Container*>> by_function_;
    /** slot→container, null for free slots (drainReleased lookups). */
    std::vector<Container*> ref_by_slot_;
    std::uint32_t next_ref_slot_ = 0;
    std::vector<std::uint32_t> free_ref_slots_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_CONTAINER_POOL_H_
