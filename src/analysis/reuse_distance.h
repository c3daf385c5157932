/**
 * @file
 * Size-weighted reuse distances (paper §5.1).
 *
 * A function's reuse distance is the total memory size of the *unique*
 * functions invoked between successive invocations of that function:
 * in the sequence ABCBCA, the reuse distance of the second A is
 * size(B) + size(C). First touches have infinite distance (compulsory
 * misses), encoded here as kInfiniteReuseDistance.
 */
#ifndef FAASCACHE_ANALYSIS_REUSE_DISTANCE_H_
#define FAASCACHE_ANALYSIS_REUSE_DISTANCE_H_

#include <vector>

#include "trace/invocation_source.h"
#include "trace/trace.h"
#include "util/types.h"

namespace faascache {

/** Marker for a first touch (compulsory miss). */
inline constexpr double kInfiniteReuseDistance = -1.0;

/** True for finite (non-first-touch) distances. */
constexpr bool isFiniteReuseDistance(double d) { return d >= 0.0; }

/**
 * Reuse distance of every invocation in trace order, in MB.
 * O(N log N) via a Fenwick tree over invocation positions.
 */
std::vector<double> computeReuseDistances(const Trace& trace);

/**
 * Streaming overload: one pass over the source (reset before and
 * after). Identical output to the Trace overload on the materialized
 * equivalent. Note the result is still O(N) doubles — reuse-distance
 * *storage* is inherently per-invocation; only the trace itself stays
 * out of memory.
 */
std::vector<double> computeReuseDistances(InvocationSource& source);

/**
 * Reuse distances of a specific invocation subsequence given by
 * (function, order) pairs; sizes are looked up in `sizes` indexed by
 * function id. Building block for SHARDS sampling.
 */
std::vector<double> computeReuseDistancesOf(
    const std::vector<FunctionId>& accesses,
    const std::vector<MemMb>& sizes);

}  // namespace faascache

#endif  // FAASCACHE_ANALYSIS_REUSE_DISTANCE_H_
