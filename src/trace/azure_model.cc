#include "trace/azure_model.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/rng.h"

namespace faascache {

double
diurnalMultiplier(TimeUs t, double peak_to_mean, TimeUs period_us)
{
    if (peak_to_mean <= 1.0 || period_us <= 0)
        return 1.0;
    const double amplitude = peak_to_mean - 1.0;
    const double phase = 2.0 * std::numbers::pi *
        static_cast<double>(t % period_us) / static_cast<double>(period_us);
    // Peak at the middle of the period.
    return std::max(0.0, 1.0 - amplitude * std::cos(phase));
}

AzureMinuteGrid::AzureMinuteGrid(const AzureModelConfig& config)
    : num_minutes_(static_cast<std::int64_t>(
          (config.duration_us + kMinute - 1) / kMinute))
{
    if (!config.diurnal)
        return;
    multipliers_.reserve(
        static_cast<std::size_t>(std::max<std::int64_t>(num_minutes_, 0)));
    for (std::int64_t minute = 0; minute < num_minutes_; ++minute) {
        multipliers_.push_back(diurnalMultiplier(minute * kMinute,
                                                 config.diurnal_peak_to_mean,
                                                 config.diurnal_period_us));
    }
}

std::int64_t
AzureMinuteGrid::nextBusyMinute(Rng& rng, double rate_per_sec,
                                std::int64_t minute,
                                std::int64_t& count) const
{
    const double rate_per_min = rate_per_sec * 60.0;
    const double* multipliers =
        multipliers_.empty() ? nullptr : multipliers_.data();
    const std::int64_t end = num_minutes_;
    while (++minute < end) {
        double mean = rate_per_min;
        if (multipliers != nullptr)
            mean *= multipliers[minute];
        const std::int64_t c = rng.poisson(mean);
        if (c > 0) {
            count = c;
            return minute;
        }
    }
    return end;
}

AzureCatalog
drawAzureCatalog(const AzureModelConfig& config, Rng& rng)
{
    AzureCatalog catalog;
    catalog.functions.reserve(config.num_functions);
    catalog.rates_per_sec.reserve(config.num_functions);
    for (std::size_t i = 0; i < config.num_functions; ++i) {
        const double iat_sec = rng.lognormal(std::log(config.iat_median_sec),
                                             config.iat_sigma);
        const double rate = std::min(config.max_rate_per_sec, 1.0 / iat_sec);

        double mem = rng.lognormal(std::log(config.mem_median_mb),
                                   config.mem_sigma);
        mem = std::clamp(mem, config.mem_min_mb, config.mem_max_mb);
        mem = std::max(1.0, std::round(mem));

        double warm_ms = rng.lognormal(std::log(config.warm_median_ms),
                                       config.warm_sigma);
        warm_ms = std::clamp(warm_ms, config.warm_min_ms, config.warm_max_ms);
        // Keep heavy hitters short (per-function utilization cap).
        const double max_warm_ms =
            config.max_utilization * 1000.0 / rate;
        warm_ms = std::max(config.warm_min_ms,
                           std::min(warm_ms, max_warm_ms));

        double ratio = rng.lognormal(std::log(config.init_ratio_median),
                                     config.init_ratio_sigma);
        ratio = std::clamp(ratio, config.init_ratio_min,
                           config.init_ratio_max);

        const auto id = static_cast<FunctionId>(i);
        catalog.functions.push_back(makeFunction(
            id, "fn-" + std::to_string(i), mem, fromMillis(warm_ms),
            fromMillis(warm_ms * ratio)));
        catalog.rates_per_sec.push_back(rate);
    }
    return catalog;
}

Trace
generateAzureTrace(const AzureModelConfig& config)
{
    Rng rng(config.seed);
    AzureCatalog catalog = drawAzureCatalog(config, rng);
    const std::vector<double>& rates = catalog.rates_per_sec;
    Trace population(config.name);
    population.reserveFunctions(config.num_functions);
    for (FunctionSpec& spec : catalog.functions)
        population.addFunction(std::move(spec));

    // Emit each function's arrivals in turn; sorting by arrival time
    // alone then leaves equal timestamps in function-id order.
    const AzureMinuteGrid grid(config);
    const std::int64_t num_minutes = grid.minutes();
    // Reserve the invocation stream at its expected size (sum of the
    // per-function Poisson means over the whole duration; the diurnal
    // multiplier averages ~1 over full periods). One allocation instead
    // of a realloc cascade on large traces.
    double expected_invocations = 0.0;
    for (const double rate : rates)
        expected_invocations += rate * 60.0 * static_cast<double>(num_minutes);
    population.reserveInvocations(
        static_cast<std::size_t>(expected_invocations * 1.02) + 64);
    for (std::size_t i = 0; i < config.num_functions; ++i) {
        const auto id = static_cast<FunctionId>(i);
        AzureArrivalWalk(rng.split(), rates[i])
            .drain(grid, [&](TimeUs t) { population.addInvocation(id, t); });
    }
    population.sortInvocations();

    if (!config.drop_single_invocation_functions)
        return population;

    const auto counts = population.invocationCounts();
    std::vector<FunctionId> keep;
    keep.reserve(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] >= 2)
            keep.push_back(static_cast<FunctionId>(i));
    }
    return population.subset(keep, config.name);
}

}  // namespace faascache
