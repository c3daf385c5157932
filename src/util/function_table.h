/**
 * @file
 * Per-function state sized by use (DESIGN.md §4d).
 *
 * FunctionId is dense over the whole trace catalog, but an invoker of a
 * function-hash-affine fleet serves only the thin slice of the catalog
 * routed to it (a 256-invoker fleet over 3,000 functions: about a dozen
 * each). A catalog-indexed vector of full rows per table spreads those
 * few live rows over dozens of pages per server; across the fleet the
 * pages outrun the TLB and the caches. A FunctionTable keeps a
 * catalog-sized uint32 slot map (4 bytes per function, 0 = never seen)
 * in front of dense rows stored in first-seen order, so the pages a
 * server touches are its slot map plus the rows it actually uses.
 *
 * Storage only: lookups by id return the same values a catalog-indexed
 * vector would, and the id-ordered walk visits rows in ascending id
 * order, so results that export or audit per-function state do not
 * depend on first-seen order.
 */
#ifndef FAASCACHE_UTIL_FUNCTION_TABLE_H_
#define FAASCACHE_UTIL_FUNCTION_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace faascache {

/** Rows of per-function state, created on first access. */
template <typename Row>
class FunctionTable
{
  public:
    /**
     * Size the slot map for ids in [0, functions). Allocation hint
     * only: larger ids still work (the map grows on access).
     */
    void reserve(std::size_t functions)
    {
        if (slot_.size() < functions)
            slot_.resize(functions, 0);
    }

    /**
     * The row of `function`, value-initialized on first access. The
     * reference is invalidated by the next first access of another id.
     */
    Row& operator[](FunctionId function)
    {
        if (function >= slot_.size()) {
            slot_.resize(std::max<std::size_t>(
                             static_cast<std::size_t>(function) + 1,
                             slot_.size() * 2),
                         0);
        }
        std::uint32_t& slot = slot_[function];
        if (slot == 0) {
            rows_.emplace_back();
            slot = static_cast<std::uint32_t>(rows_.size());
        }
        return rows_[slot - 1];
    }

    /** The row of `function`, or null if it was never accessed. */
    Row* find(FunctionId function)
    {
        if (function >= slot_.size() || slot_[function] == 0)
            return nullptr;
        return &rows_[slot_[function] - 1];
    }
    const Row* find(FunctionId function) const
    {
        return const_cast<FunctionTable*>(this)->find(function);
    }

    /** Number of rows (distinct functions ever accessed). */
    std::size_t size() const { return rows_.size(); }

    /**
     * Visit fn(id, row) for every row in ascending id order. O(slot
     * map): for audits and end-of-run export, not the hot path.
     */
    template <typename Fn>
    void forEachById(Fn&& fn) const
    {
        for (std::size_t id = 0; id < slot_.size(); ++id) {
            if (slot_[id] != 0)
                fn(static_cast<FunctionId>(id), rows_[slot_[id] - 1]);
        }
    }

  private:
    /** Row index + 1 per function id; 0 = no row. */
    std::vector<std::uint32_t> slot_;
    /** Rows in first-seen order. */
    std::vector<Row> rows_;
};

}  // namespace faascache

#endif  // FAASCACHE_UTIL_FUNCTION_TABLE_H_
