/**
 * @file
 * The histogram-based keep-alive policy of Shahrad et al. ("HIST" in the
 * paper's figures) — the state-of-the-art baseline the paper compares
 * against (§7.1). Effectively "TTL + prefetching":
 *
 *  - per function, inter-arrival times (execution time plus subsequent
 *    idle time) are recorded in minute-wide histogram buckets covering
 *    up to four hours;
 *  - the coefficient of variation of the IAT is maintained with
 *    Welford's online algorithm;
 *  - when the IAT is predictable (CoV <= 2 and enough in-window
 *    samples), the function's containers are released after execution
 *    and a fresh container is pre-warmed shortly before the predicted
 *    next invocation (head = 5th percentile x 0.85), then kept until the
 *    tail (99th percentile x 1.15);
 *  - otherwise the function falls back to a generic two-hour TTL.
 *
 * The policy considers only inter-arrival times — not size or
 * initialization cost — which is exactly the limitation the paper's
 * Greedy-Dual policy addresses. Under memory pressure it evicts in LRU
 * order, like TTL.
 */
#ifndef FAASCACHE_CORE_HISTOGRAM_POLICY_H_
#define FAASCACHE_CORE_HISTOGRAM_POLICY_H_

#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/keepalive_policy.h"
#include "util/function_table.h"
#include "util/histogram.h"
#include "util/welford.h"

namespace faascache {

/** Tunables of the HIST policy. */
struct HistogramPolicyConfig
{
    /** Histogram bucket width (minute granularity in the original). */
    TimeUs bucket_width_us = kMinute;

    /** Number of in-range buckets (4 hours in the original). */
    std::size_t num_buckets = 240;

    /** Functions with IAT CoV above this are unpredictable. */
    double cov_threshold = 2.0;

    /** Head (pre-warm) percentile of the IAT distribution. */
    double head_percentile = 0.05;

    /** Tail (keep-alive) percentile of the IAT distribution. */
    double tail_percentile = 0.99;

    /** Safety margins applied to head and tail. */
    double head_margin = 0.85;
    double tail_margin = 1.15;

    /** Fallback TTL for unpredictable functions (two hours). */
    TimeUs generic_ttl_us = 2 * kHour;

    /** Minimum IAT samples before trusting the histogram. */
    std::int64_t min_samples = 2;

    /** Heads shorter than this do not trigger release + prewarm (the
     *  container simply stays warm until the tail). */
    TimeUs prewarm_min_us = kMinute;

    /** Functions whose IATs overflow the histogram window more than
     *  this fraction of the time are unpredictable. */
    double max_out_of_bounds_fraction = 0.5;
};

/** Predicted keep-alive window for one function. */
struct KeepAliveWindow
{
    /** Whether the IAT histogram is trusted. */
    bool predictable = false;

    /** Release containers after execution and pre-warm this long after
     *  the last arrival (0 = no prewarming). */
    TimeUs prewarm_us = 0;

    /** Keep containers until this long after the last arrival. */
    TimeUs keepalive_us = 0;
};

/** Histogram-based TTL + prefetch keep-alive. */
class HistogramPolicy : public KeepAlivePolicy
{
  public:
    explicit HistogramPolicy(HistogramPolicyConfig config = {});

    std::string name() const override { return "HIST"; }

    void onInvocationArrival(const FunctionSpec& function,
                             TimeUs now) override;
    void onWarmStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onColdStart(Container& container, const FunctionSpec& function,
                     TimeUs now) override;
    void onPrewarm(Container& container, const FunctionSpec& function,
                   TimeUs now) override;
    void onEviction(const Container& container, bool last_of_function,
                    TimeUs now) override;

    std::vector<ContainerId> selectVictims(ContainerPool& pool,
                                           MemMb needed_mb,
                                           TimeUs now) override;
    std::vector<ContainerId> expiredContainers(const ContainerPool& pool,
                                               TimeUs now) override;
    std::vector<FunctionId> duePrewarms(TimeUs now) override;

    /** The current keep-alive window prediction for `function`. */
    KeepAliveWindow windowFor(FunctionId function) const;

    const HistogramPolicyConfig& config() const { return config_; }

  private:
    struct FunctionModel
    {
        Histogram iat_histogram;
        Welford iat_moments;
        TimeUs last_arrival_us = -1;

        explicit FunctionModel(const HistogramPolicyConfig& config)
            : iat_histogram(static_cast<double>(config.bucket_width_us),
                            config.num_buckets)
        {
        }
    };

    /** Model for `function`, creating it on first touch. */
    FunctionModel& modelOf(FunctionId function);

    /** Expiry assignment shared by cold/warm start handling. */
    void assignExpiry(Container& container, FunctionId function, TimeUs now);

    /** Store `deadline` as `container`'s lease. */
    void setLease(const Container& container, TimeUs deadline);

    /**
     * A keep-alive lease, keyed by pool slot. The stored id guards
     * against slot recycling: a lease is only valid for the container
     * whose id it recorded.
     */
    struct Lease
    {
        ContainerId id = kInvalidContainer;
        TimeUs deadline_us = 0;
    };

    HistogramPolicyConfig config_;
    /** Per-function IAT model, sized by the functions seen. */
    FunctionTable<std::optional<FunctionModel>> models_;
    /** Per-container lease, indexed by Container::poolSlot(). */
    std::vector<Lease> leases_;

    struct ScheduledPrewarm
    {
        TimeUs due_us;
        FunctionId function;

        bool operator>(const ScheduledPrewarm& other) const
        {
            if (due_us != other.due_us)
                return due_us > other.due_us;
            return function > other.function;
        }
    };
    std::priority_queue<ScheduledPrewarm, std::vector<ScheduledPrewarm>,
                        std::greater<>> prewarm_schedule_;
};

}  // namespace faascache

#endif  // FAASCACHE_CORE_HISTOGRAM_POLICY_H_
