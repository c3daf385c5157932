/**
 * @file
 * Per-function state sized by use (DESIGN.md §4d).
 *
 * FunctionId is dense over the whole trace catalog, but an invoker of a
 * function-hash-affine fleet serves only the thin slice of the catalog
 * routed to it (a 256-invoker fleet over 3,000 functions: about a dozen
 * each). A FunctionTable therefore allocates nothing by catalog size:
 * rows live densely in first-seen order, and a compact open-addressing
 * index maps each id to its row. The index holds packed {id, row}
 * entries in a power-of-two array kept at most half full, probed
 * linearly from a Fibonacci hash of the id, so a table of k functions
 * costs O(k) memory whatever the catalog, and a lookup is one multiply
 * plus (usually) one 8-byte load.
 *
 * Callers on a hot path may keep a row index (rowOf) instead of the id:
 * row indices are stable for the table's lifetime, so row(r) skips the
 * hash entirely.
 *
 * Storage only: lookups by id return the same values a catalog-indexed
 * vector would, and the id-ordered walk visits rows in ascending id
 * order, so results that export or audit per-function state do not
 * depend on first-seen order or on the hash.
 */
#ifndef FAASCACHE_UTIL_FUNCTION_TABLE_H_
#define FAASCACHE_UTIL_FUNCTION_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.h"

namespace faascache {

/** Rows of per-function state, created on first access. */
template <typename Row>
class FunctionTable
{
  public:
    /**
     * The row index of `function`, creating a value-initialized row on
     * first access. Row indices are dense (0, 1, ... in first-seen
     * order) and never change.
     * @pre function != kInvalidFunction (the index's empty marker).
     */
    std::uint32_t rowOf(FunctionId function)
    {
        if (2 * (rows_.size() + 1) > index_.size())
            grow();
        for (std::size_t i = home(function);; i = (i + 1) & mask_) {
            Entry& e = index_[i];
            if (e.id == function)
                return e.row;
            if (e.id == kInvalidFunction) {
                e = Entry{function, static_cast<std::uint32_t>(rows_.size())};
                rows_.emplace_back();
                return e.row;
            }
        }
    }

    /**
     * The row of `function`, value-initialized on first access. The
     * reference is invalidated by the next first access of another id.
     */
    Row& operator[](FunctionId function) { return rows_[rowOf(function)]; }

    /** The row at index `row` (from rowOf). */
    Row& row(std::uint32_t row) { return rows_[row]; }
    const Row& row(std::uint32_t row) const { return rows_[row]; }

    /** The row of `function`, or null if it was never accessed. Never
     *  creates a row. */
    Row* find(FunctionId function)
    {
        if (index_.empty())
            return nullptr;
        for (std::size_t i = home(function);; i = (i + 1) & mask_) {
            const Entry& e = index_[i];
            if (e.id == function)
                return &rows_[e.row];
            if (e.id == kInvalidFunction)
                return nullptr;
        }
    }
    const Row* find(FunctionId function) const
    {
        return const_cast<FunctionTable*>(this)->find(function);
    }

    /** Number of rows (distinct functions ever accessed). */
    std::size_t size() const { return rows_.size(); }

    /** Slots of the id index (a power of two, at least 2 × size(), or
     *  0 before the first row); tests and memory accounting. */
    std::size_t indexCapacity() const { return index_.size(); }

    /**
     * Visit fn(id, row) for every row in ascending id order. O(k log k)
     * for k rows, with one temporary of k entries: for audits and
     * end-of-run export, not the hot path.
     */
    template <typename Fn>
    void forEachById(Fn&& fn) const
    {
        std::vector<Entry> live;
        live.reserve(rows_.size());
        for (const Entry& e : index_) {
            if (e.id != kInvalidFunction)
                live.push_back(e);
        }
        std::sort(live.begin(), live.end(),
                  [](const Entry& a, const Entry& b) { return a.id < b.id; });
        for (const Entry& e : live)
            fn(e.id, rows_[e.row]);
    }

  private:
    /** One index slot; id == kInvalidFunction marks an empty slot. */
    struct Entry
    {
        FunctionId id = kInvalidFunction;
        std::uint32_t row = 0;
    };

    /** Smallest index allocated (64 bytes of entries). */
    static constexpr std::size_t kMinIndex = 8;

    /** Home slot of `function`: Fibonacci hashing keeps dense and
     *  strided id sets spread over the index. */
    std::size_t home(FunctionId function) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(function) * 0x9E3779B97F4A7C15ull) >>
            shift_);
    }

    /** Double the index (or allocate the first) and reinsert every
     *  entry; rows stay where they are. */
    void grow()
    {
        const std::size_t capacity =
            index_.empty() ? kMinIndex : 2 * index_.size();
        std::vector<Entry> old = std::exchange(index_, {});
        index_.assign(capacity, Entry{});
        mask_ = capacity - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (const Entry& e : old) {
            if (e.id == kInvalidFunction)
                continue;
            std::size_t i = home(e.id);
            while (index_[i].id != kInvalidFunction)
                i = (i + 1) & mask_;
            index_[i] = e;
        }
    }

    /** Open-addressing id → row index; empty until the first row. */
    std::vector<Entry> index_;
    std::size_t mask_ = 0;
    /** 64 − log2(index_.size()). */
    unsigned shift_ = 64;
    /** Rows in first-seen order. */
    std::vector<Row> rows_;
};

}  // namespace faascache

#endif  // FAASCACHE_UTIL_FUNCTION_TABLE_H_
