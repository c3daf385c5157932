/**
 * @file
 * Brute-force reuse distances: the oracle the Fenwick-tree
 * computeReuseDistances() (analysis/reuse_distance.h) is checked
 * against.
 */
#ifndef FAASCACHE_TESTS_SUPPORT_REUSE_DISTANCE_NAIVE_H_
#define FAASCACHE_TESTS_SUPPORT_REUSE_DISTANCE_NAIVE_H_

#include <vector>

#include "trace/trace.h"

namespace faascache {

/**
 * Reference implementation scanning all intermediate invocations per
 * access, O(N^2); same encoding as computeReuseDistances().
 */
std::vector<double> computeReuseDistancesNaive(const Trace& trace);

}  // namespace faascache

#endif  // FAASCACHE_TESTS_SUPPORT_REUSE_DISTANCE_NAIVE_H_
