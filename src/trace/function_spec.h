/**
 * @file
 * Static description of a serverless function.
 *
 * These are the only attributes the keep-alive policies observe
 * (paper §4.1): the memory footprint ("Size"), the warm execution time,
 * and the cold execution time whose excess over warm is the
 * initialization overhead ("Cost").
 */
#ifndef FAASCACHE_TRACE_FUNCTION_SPEC_H_
#define FAASCACHE_TRACE_FUNCTION_SPEC_H_

#include <limits>
#include <string>

#include "util/types.h"

namespace faascache {

/**
 * Latest arrival time any engine accepts, and the longest execution
 * span a function may declare. Engines add spans to arrival times in
 * plain TimeUs arithmetic (cold and warm execution, queue_timeout_us,
 * tick and keep-alive periods), and the cluster engine reserves the
 * TimeUs maximum as its "no event" sentinel. Capping arrivals, cold_us
 * (hence warm_us) and ServerConfig::queue_timeout_us at a quarter of the
 * range each (about 73,000 years) keeps arrival + cold span + queue
 * timeout within three quarters of it.
 */
inline constexpr TimeUs kMaxArrivalUs =
    std::numeric_limits<TimeUs>::max() / 4;

/** Immutable per-function characteristics. */
struct FunctionSpec
{
    /** Dense identifier, index into Trace::functions. */
    FunctionId id = kInvalidFunction;

    /** Human-readable name (unique within a trace). */
    std::string name;

    /** Container memory footprint in MB (> 0). */
    MemMb mem_mb = 0;

    /** CPU demand in cores (for multi-dimensional sizes, §4.1). */
    double cpu_units = 1.0;

    /** I/O bandwidth demand, arbitrary units (0 = negligible). */
    double io_units = 0.0;

    /** Execution time when served by a warm container. */
    TimeUs warm_us = 0;

    /**
     * Execution time when a new container must be created and
     * initialized; always >= warm_us.
     */
    TimeUs cold_us = 0;

    /** Initialization overhead: cold_us - warm_us. */
    TimeUs initTime() const { return cold_us - warm_us; }

    /** Whether the spec satisfies all invariants: a real id, positive
     *  memory, and 0 < warm_us <= cold_us <= kMaxArrivalUs. */
    bool valid() const;
};

/**
 * Construct a spec from (memory, warm time, init time); the cold time is
 * derived. Convenience for tests and the FunctionBench catalog.
 */
FunctionSpec makeFunction(FunctionId id, std::string name, MemMb mem_mb,
                          TimeUs warm_us, TimeUs init_us);

}  // namespace faascache

#endif  // FAASCACHE_TRACE_FUNCTION_SPEC_H_
