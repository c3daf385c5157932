/**
 * @file
 * Statistical model of the Azure Functions 2019 workload.
 *
 * The paper evaluates against samples of the Azure trace, which is not
 * redistributable; this generator is the documented substitution
 * (DESIGN.md §1). It reproduces the distributional properties the paper
 * relies on:
 *
 *  - inter-arrival times and memory sizes spanning more than three orders
 *    of magnitude (lognormal with heavy tails, §2.1);
 *  - heavy-hitter functions that dominate the invocation stream (§3);
 *  - minute-bucketed invocation counts replayed with the paper's rule:
 *    a single invocation in a bucket lands at the start of the minute,
 *    multiple invocations are spaced evenly through it (§7);
 *  - cold-start cost modeled as a function-specific initialization
 *    overhead on top of the warm run time;
 *  - optional diurnal modulation with a configurable peak-to-mean ratio
 *    (the Azure trace shows ~2x peaks, §3).
 */
#ifndef FAASCACHE_TRACE_AZURE_MODEL_H_
#define FAASCACHE_TRACE_AZURE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"

namespace faascache {

/** Tunable parameters of the synthetic Azure-like workload. */
struct AzureModelConfig
{
    /** Seed for the whole generation; equal configs generate equal traces. */
    std::uint64_t seed = 42;

    /** Number of functions in the population before filtering. */
    std::size_t num_functions = 1000;

    /** Length of the generated trace. */
    TimeUs duration_us = 2 * kHour;

    /** Median of the per-function mean inter-arrival time, seconds. */
    double iat_median_sec = 120.0;

    /** Lognormal sigma of the mean IAT (2.3 gives ~3 orders of magnitude
     *  between the 2nd and 98th percentile). */
    double iat_sigma = 2.3;

    /** Fastest allowed per-function mean rate, invocations per second.
     *  Caps the heavy hitters so trace sizes stay manageable. */
    double max_rate_per_sec = 4.0;

    /** Median container memory footprint, MB. */
    double mem_median_mb = 170.0;

    /** Lognormal sigma of the memory footprint. */
    double mem_sigma = 1.0;

    /** Memory clamp range, MB. */
    MemMb mem_min_mb = 32.0;
    MemMb mem_max_mb = 4096.0;

    /** Median warm execution time, milliseconds. */
    double warm_median_ms = 400.0;

    /** Lognormal sigma of the warm execution time. */
    double warm_sigma = 1.5;

    /** Warm time clamp range, milliseconds. */
    double warm_min_ms = 1.0;
    double warm_max_ms = 60'000.0;

    /**
     * Cap on per-function utilization: warm time <= this fraction of
     * the function's mean inter-arrival time. Prevents the unrealistic
     * combination of a heavy-hitter invocation rate with a long
     * execution time, which would imply dozens of permanently busy
     * containers for one function (Azure heavy hitters are short).
     */
    double max_utilization = 0.5;

    /** Median of init_time / warm_time; the paper's Table 1 shows ratios
     *  from ~0.05 (video encoding) to ~6 (web serving). */
    double init_ratio_median = 1.0;

    /** Lognormal sigma of the init ratio. */
    double init_ratio_sigma = 0.9;

    /** Init ratio clamp range. */
    double init_ratio_min = 0.05;
    double init_ratio_max = 10.0;

    /** Enable sinusoidal diurnal modulation of arrival rates. */
    bool diurnal = false;

    /** Peak arrival rate divided by the mean rate (>= 1). */
    double diurnal_peak_to_mean = 2.0;

    /** Period of the diurnal cycle. */
    TimeUs diurnal_period_us = 24 * kHour;

    /** Drop functions invoked fewer than two times, as the paper does. */
    bool drop_single_invocation_functions = true;

    /** Name given to the generated trace. */
    std::string name = "azure-synthetic";
};

/** Generate a workload trace from the model. Deterministic in the config. */
Trace generateAzureTrace(const AzureModelConfig& config);

/** The model's function population before any arrival is drawn. */
struct AzureCatalog
{
    /** Functions 0..num_functions-1, named "fn-<id>". */
    std::vector<FunctionSpec> functions;
    /** Each function's mean arrival rate, invocations per second. */
    std::vector<double> rates_per_sec;
};

/**
 * Draw the per-function catalog (lognormal rate, memory, warm time and
 * init ratio, clamped, with the utilization cap on warm time) from
 * `rng`, which is left at the state the arrival draws start from. The
 * one catalog draw behind generateAzureTrace() and makeAzureSource().
 */
AzureCatalog drawAzureCatalog(const AzureModelConfig& config, Rng& rng);

/**
 * Diurnal rate multiplier at time t for the given peak-to-mean ratio and
 * period: a raised sinusoid with mean 1 and peak `peak_to_mean`,
 * floored at zero. Exposed for tests and for the elastic-scaling bench.
 */
double diurnalMultiplier(TimeUs t, double peak_to_mean, TimeUs period_us);

/**
 * The (function, minute) cells of the model, one Poisson count per cell
 * in minute order. The diurnal multiplier is evaluated once per minute
 * of the duration, not per cell.
 */
class AzureMinuteGrid
{
  public:
    explicit AzureMinuteGrid(const AzureModelConfig& config);

    /** Minute buckets per function: the duration rounded up. */
    std::int64_t minutes() const { return num_minutes_; }

    /**
     * Draw the cells after `minute` (-1 before the first) of a function
     * with `rate_per_sec` from its generator `rng` until one draws a
     * non-zero count. The cell's mean is rate_per_sec * 60, times the
     * minute's diurnal multiplier when the model is diurnal.
     * @return that minute, with its count in `count`, or minutes() when
     *         no later cell draws one (`count` untouched).
     */
    std::int64_t nextBusyMinute(Rng& rng, double rate_per_sec,
                                std::int64_t minute,
                                std::int64_t& count) const;

  private:
    std::int64_t num_minutes_;
    /** diurnalMultiplier() at each minute's start; empty when flat. */
    std::vector<double> multipliers_;
};

/**
 * One function's arrivals, in time order: its cells drawn through
 * AzureMinuteGrid::nextBusyMinute() from the function's own generator,
 * each busy minute replayed with the paper's rule (§7).
 * generateAzureTrace() and makeAzureSource() both walk every function
 * through it, which keeps them equal draw for draw. Every call on a
 * walk takes the same grid; the walk does not hold it, so the streamed
 * source's one walk per function stays at the generator plus five
 * words.
 */
class AzureArrivalWalk
{
  public:
    AzureArrivalWalk(Rng rng, double rate_per_sec)
        : rng_(rng), rate_per_sec_(rate_per_sec)
    {
    }

    /** The next arrival in `t`; false once the walk is drained. */
    bool next(const AzureMinuteGrid& grid, TimeUs& t)
    {
        if (k_ == count_ && !nextMinute(grid))
            return false;
        t = minute_ * kMinute + k_ * spacing_;
        ++k_;
        return true;
    }

    /** Hand every arrival next() has yet to produce to `emit(t)`, in
     *  time order, leaving the walk drained. */
    template <typename Emit>
    void drain(const AzureMinuteGrid& grid, Emit&& emit)
    {
        do {
            // Locals, so a minute's loop keeps them in registers
            // across `emit`.
            const TimeUs start = minute_ * kMinute;
            const TimeUs spacing = spacing_;
            const std::int64_t count = count_;
            for (std::int64_t k = k_; k < count; ++k)
                emit(start + k * spacing);
            k_ = count;
        } while (nextMinute(grid));
    }

  private:
    /** Step to the next busy minute and lay out its arrivals; false
     *  when none is left. */
    bool nextMinute(const AzureMinuteGrid& grid)
    {
        minute_ = grid.nextBusyMinute(rng_, rate_per_sec_, minute_, count_);
        if (minute_ >= grid.minutes())
            return false;
        // The replay rule: one invocation at the start of the minute,
        // else `count` of them spaced evenly through it.
        spacing_ = count_ == 1 ? 0 : kMinute / count_;
        k_ = 0;
        return true;
    }

    Rng rng_;
    double rate_per_sec_;
    std::int64_t minute_ = -1;
    std::int64_t count_ = 0;
    std::int64_t k_ = 0;
    TimeUs spacing_ = 0;
};

}  // namespace faascache

#endif  // FAASCACHE_TRACE_AZURE_MODEL_H_
