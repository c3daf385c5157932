/**
 * @file
 * Per-function runtime statistics shared by keep-alive policies.
 *
 * Tracks the invocation frequency used by Greedy-Dual and LFU. Following
 * the paper (§4.1), "frequency" counts invocations across all of a
 * function's containers and resets to zero when the function's last
 * container is terminated.
 *
 * FunctionId is a dense uint32 assigned by the trace catalog. The table
 * is a FunctionTable (util/function_table.h): rows in first-seen order
 * behind an id index sized by those rows, so a policy on an invoker
 * that serves a few functions of a large catalog holds a few rows and
 * nothing catalog-sized (DESIGN.md §4d).
 */
#ifndef FAASCACHE_CORE_FUNCTION_STATS_H_
#define FAASCACHE_CORE_FUNCTION_STATS_H_

#include <cstdint>

#include "util/function_table.h"
#include "util/types.h"

namespace faascache {

/** Mutable statistics for one function. */
struct FunctionStats
{
    /** Invocations since the function last had zero containers. */
    std::int64_t frequency = 0;

    /** Lifetime invocation count (never reset). */
    std::int64_t total_invocations = 0;

    /** Arrival time of the most recent invocation; -1 if none. */
    TimeUs last_arrival_us = -1;
};

/** Table of FunctionStats keyed by dense function id. */
class FunctionStatsTable
{
  public:
    /** Stats for `function`, default-constructed on first access. */
    FunctionStats& of(FunctionId function) { return table_[function]; }

    /** Read-only lookup; returns a zero value if never seen. */
    const FunctionStats& of(FunctionId function) const
    {
        static const FunctionStats kZero;
        const FunctionStats* stats = table_.find(function);
        return stats != nullptr ? *stats : kZero;
    }

    /** Record an invocation arrival. */
    void recordArrival(FunctionId function, TimeUs now);

    /** Reset the Greedy-Dual frequency (last container evicted). */
    void resetFrequency(FunctionId function);

    /** Number of functions ever observed. */
    std::size_t size() const { return table_.size(); }

  private:
    FunctionTable<FunctionStats> table_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_FUNCTION_STATS_H_
