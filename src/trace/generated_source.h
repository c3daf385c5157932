/**
 * @file
 * The Azure model generated on the fly (DESIGN.md §4h).
 *
 * generateAzureTrace() (azure_model.h) appends each function's
 * chronological arrivals in function-id order and then stable_sorts by
 * arrival time alone, so the final order at equal timestamps is exactly
 * (arrival_us, function_id, within-function order). makeAzureSource()
 * reproduces that order without materializing the invocation vector:
 * it walks every function with the same AzureArrivalWalk, seeded by the
 * same per-function `rng.split()` in function-id order, and merges the
 * walks through a min-heap keyed on (arrival_us, function) that holds
 * at most one pending entry per function. The produced invocation
 * sequence is byte-identical to the Trace the eager generator builds,
 * and peak memory is O(functions), not O(invocations).
 *
 * A counting pre-pass at construction (the same walks, counts only)
 * gives an exact countHint() and applies the model's
 * drop-single-invocation-functions filter up front, numbering the kept
 * functions densely as Trace::subset() does.
 */
#ifndef FAASCACHE_TRACE_GENERATED_SOURCE_H_
#define FAASCACHE_TRACE_GENERATED_SOURCE_H_

#include <memory>

#include "trace/azure_model.h"
#include "trace/invocation_source.h"

namespace faascache {

/** Streaming equivalent of generateAzureTrace(). */
std::unique_ptr<InvocationSource> makeAzureSource(
    const AzureModelConfig& config);

}  // namespace faascache

#endif  // FAASCACHE_TRACE_GENERATED_SOURCE_H_
