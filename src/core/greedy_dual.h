/**
 * @file
 * The Greedy-Dual-Size-Frequency keep-alive policy (paper §4.1) — the
 * paper's primary contribution, labeled "GD" in its figures.
 *
 * Each container carries a priority
 *
 *     Priority = Clock + Frequency x Cost / Size
 *
 * where Clock is a per-server logical clock advanced to the priority of
 * evicted containers (an "aging" mechanism), Frequency is the function's
 * invocation count since it last had zero containers, Cost is the
 * initialization (cold-start) overhead, and Size is the container memory
 * footprint. The clock component is captured per container at its last
 * use, which breaks ties toward evicting the least recently used
 * container of a function. Lowest-priority idle containers are
 * terminated first. The policy is resource-conserving: nothing expires
 * by wall clock.
 *
 * Priorities are recomputed lazily at eviction time from each
 * container's clock snapshot and the function's current frequency; this
 * is observationally identical to the paper's eager update on every
 * invocation, because a function's frequency only changes when the
 * function itself is invoked (which refreshes its containers anyway).
 *
 * Victim selection comes in two engines (GdEvictionEngine):
 *
 *  - SortReference re-sorts every idle container on each eviction round
 *    — the original implementation, O(n log n) per round, kept as the
 *    conformance oracle;
 *  - LazyHeap (default) ranks idle containers only, in a min-heap of
 *    (priority, lastUsed, id) snapshots. It learns which containers
 *    became candidates from the pool's release log
 *    (ContainerPool::drainReleased): a search first pushes every
 *    container logged idle since the last search under a fresh entry,
 *    and a use only retires the container's entry, because the
 *    container is busy until its release logs it again. So the heap
 *    holds a live entry for exactly the containers idle at the search,
 *    whatever the driver's release order or timing. Entries are
 *    re-keyed on pop when stale, so a round costs O(k log n) for k
 *    popped entries over idle containers only. Proposed victims are
 *    held aside with their exact keys rather than pushed back: most
 *    are evicted, which retires them, and the rest return to the heap
 *    at the next search if their entry is still live.
 *    The two engines select identical victim sequences: a live
 *    container's priority triple never decreases (its clock snapshot is
 *    fixed until re-use, frequency is monotone while the function has
 *    containers, and cost/size are per-function constants), so every
 *    heap key is a lower bound of its container's current triple and
 *    the first popped entry whose key still matches its current triple
 *    is the exact minimum. A per-slot sequence number marks each
 *    container's one live entry; superseded entries are skipped on pop
 *    and compacted away at a search once they make up three quarters
 *    of the heap.
 */
#ifndef FAASCACHE_CORE_GREEDY_DUAL_H_
#define FAASCACHE_CORE_GREEDY_DUAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/keepalive_policy.h"
#include "core/size_norm.h"
#include "util/function_table.h"

namespace faascache {

/** Victim-selection implementation of the Greedy-Dual policy. */
enum class GdEvictionEngine
{
    /** Lazy-deletion min-heap over priority snapshots (fast path). */
    LazyHeap,
    /** Full re-sort of idle containers per round (reference oracle). */
    SortReference,
};

/** Tunables of the Greedy-Dual policy. */
struct GreedyDualConfig
{
    /**
     * Eviction batching (paper §6): when evicting, keep terminating
     * containers until this much memory is free, amortizing the
     * slow-path sort. Zero frees exactly what the new container needs.
     */
    MemMb batch_free_mb = 0.0;

    /**
     * @name Priority-term ablations
     * Each flag drops one term of Freq x Cost / Size (the clock term is
     * always present — dropping everything else yields plain LRU-like
     * aging). Used by the ablation benches; all true reproduces GDSF.
     * @{
     */
    bool use_frequency = true;  ///< false: Greedy-Dual-Size
    bool use_cost = true;       ///< false: cost treated as 1 second
    bool use_size = true;       ///< false: size treated as 1 MB
    /** @} */

    /**
     * Scalarization of the container size when the function declares a
     * multi-dimensional resource footprint (paper §4.1). MemoryOnly
     * matches the paper's default evaluation.
     */
    SizeNorm size_norm = SizeNorm::MemoryOnly;

    /** Server resource totals used by the normalized/cosine norms. */
    ResourceVector server_resources = ResourceVector{48.0, 48.0 * 1024.0,
                                                     100.0};

    /**
     * Victim-selection engine. LazyHeap and SortReference are
     * conformance-tested to produce identical victim sequences; the
     * sort engine exists as the oracle and for A/B benchmarking.
     */
    GdEvictionEngine eviction_engine = GdEvictionEngine::LazyHeap;
};

/** Greedy-Dual-Size-Frequency keep-alive. */
class GreedyDualPolicy : public KeepAlivePolicy
{
  public:
    explicit GreedyDualPolicy(GreedyDualConfig config = {});

    std::string name() const override { return "GD"; }
    bool resourceConserving() const override { return true; }

    void onWarmStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onColdStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onEviction(const Container& container, bool last_of_function,
                    TimeUs now) override;
    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;

    /** Current logical clock (for tests and introspection). */
    double clock() const { return clock_; }

    /**
     * The priority a container of `function` would get if used now,
     * given the current clock and frequency.
     */
    double priorityOf(const FunctionSpec& function) const;

    /** Priority-heap entries plus proposals held aside since the last
     *  search, stale included (tests and introspection). */
    std::size_t heapSize() const { return heap_.size() + held_.size(); }

  private:
    struct CostSize
    {
        double cost_sec = 0.0;
        /** Scalarized size under the configured SizeNorm (> 0). */
        double size = 0.0;
    };

    /** Frequency x cost / size term for `function` under the current
     *  frequency (no clock component); 0 for a function never used. */
    double valueTerm(FunctionId function) const;
    /** The same, given `function`'s cost/size row. */
    double valueTerm(FunctionId function, const CostSize& cs) const;

    /** Stamp the container's clock snapshot and priority at use. */
    void touch(Container& container, const FunctionSpec& function);

    /** The "Size" of a function's container under the configured norm. */
    double scalarSizeOf(const FunctionSpec& function) const;

    /** Priority of a live container under the current frequency. */
    double containerPriority(const Container& container) const;

    std::vector<ContainerId> selectVictimsSort(ContainerPool& pool,
                                               MemMb needed_mb);
    std::vector<ContainerId> selectVictimsHeap(ContainerPool& pool,
                                               MemMb needed_mb);

    /** A (priority, lastUsed, id) snapshot of an idle container; seq
     *  marks the live one. `slot` keys the dense live-seq table (ids
     *  never recycle, seqs are globally unique, so a recycled slot
     *  cannot false-match). */
    struct HeapEntry
    {
        double priority;
        TimeUs last_used;
        ContainerId id;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap comparator: a ordered after b (std::*_heap min-heap). A
     *  function object rather than a function pointer, so the heap
     *  algorithms inline it. */
    struct EntryAfter
    {
        bool operator()(const HeapEntry& a, const HeapEntry& b) const;
    };

    /** Whether `seq` is the live entry of pool slot `slot`. */
    bool isLive(std::uint32_t slot, std::uint64_t seq) const;

    /** A fresh seq for `slot`, superseding its previous entry. */
    std::uint64_t claimSeq(std::uint32_t slot);

    /** Invalidate the live entry keyed at `slot`, if any. */
    void dropEntry(std::uint32_t slot);

    /** Push `c` under live seq `seq` into the priority heap. */
    void pushEntry(const Container& c, std::uint64_t seq);

    /** Push a snapshot taken earlier (a held-aside proposal). */
    void pushEntry(const HeapEntry& e);

    /** Drop superseded entries once they dominate the heap. */
    void maybeCompact();

    GreedyDualConfig config_;
    double clock_ = 0.0;
    /** Per-function cost/size of every function touched so far. */
    FunctionTable<CostSize> characteristics_;

    /** Priority min-heap of idle containers (via std::*_heap with a
     *  greater-than comparator). */
    std::vector<HeapEntry> heap_;
    /** The last search's proposals, with their exact keys; re-pushed at
     *  the next search if still live (the driver declined them). */
    std::vector<HeapEntry> held_;
    /** Seq of each pool slot's current (non-superseded) entry in heap_
     *  or held_; zero = none. Indexed by Container::poolSlot(). */
    std::vector<std::uint64_t> entry_seq_;
    /** Number of non-zero entries in entry_seq_ (compaction trigger). */
    std::size_t live_entries_ = 0;
    std::uint64_t next_seq_ = 1;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_GREEDY_DUAL_H_
