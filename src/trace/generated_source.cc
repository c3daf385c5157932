#include "trace/generated_source.h"

#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace faascache {
namespace {

class AzureSource final : public InvocationSource
{
  public:
    explicit AzureSource(const AzureModelConfig& config)
        : name_(config.name), grid_(config)
    {
        // The catalog draw generateAzureTrace() makes; the per-function
        // split() sequence then starts from the same state.
        Rng rng(config.seed);
        AzureCatalog catalog = drawAzureCatalog(config, rng);
        // Counting pre-pass: drain a copy of every function's walk for
        // the exact count hint and the drop-single-invocation filter;
        // a kept function's fresh walk is where reset() restarts it.
        // One block of the catalog's size, not a doubled one: the largest
        // block a set-up frees raises glibc's mmap threshold, and with it
        // the resident heap of the replay that follows.
        starts_.reserve(catalog.functions.size());
        for (std::size_t i = 0; i < catalog.functions.size(); ++i) {
            const AzureArrivalWalk start(rng.split(),
                                         catalog.rates_per_sec[i]);
            std::size_t count = 0;
            AzureArrivalWalk(start).drain(grid_,
                                          [&count](TimeUs) { ++count; });
            if (config.drop_single_invocation_functions && count < 2)
                continue;
            FunctionSpec spec = std::move(catalog.functions[i]);
            spec.id = static_cast<FunctionId>(functions_.size());
            functions_.push_back(std::move(spec));
            starts_.push_back(start);
            total_count_ += count;
        }
    }

    const std::string& name() const override { return name_; }
    const std::vector<FunctionSpec>& functions() const override
    {
        return functions_;
    }

    bool peek(Invocation& out) override
    {
        primeIfNeeded();
        if (heap_.empty())
            return false;
        out.arrival_us = heap_.top().first;
        out.function = heap_.top().second;
        return true;
    }

    bool next(Invocation& out) override
    {
        primeIfNeeded();
        if (heap_.empty())
            return false;
        const auto [t, function] = heap_.top();
        heap_.pop();
        out.arrival_us = t;
        out.function = function;
        TimeUs next_t = 0;
        if (walks_[function].next(grid_, next_t))
            heap_.emplace(next_t, function);
        return true;
    }

    void reset() override
    {
        heap_ = {};
        primed_ = false;
    }

    SourceCountHint countHint() const override
    {
        return SourceCountHint{total_count_, true};
    }

  private:
    void primeIfNeeded()
    {
        if (primed_)
            return;
        walks_ = starts_;
        for (std::size_t f = 0; f < walks_.size(); ++f) {
            TimeUs t = 0;
            if (walks_[f].next(grid_, t))
                heap_.emplace(t, static_cast<FunctionId>(f));
        }
        primed_ = true;
    }

    using HeapEntry = std::pair<TimeUs, FunctionId>;

    std::string name_;
    AzureMinuteGrid grid_;
    std::vector<FunctionSpec> functions_;
    /** Each kept function's walk before its first draw. */
    std::vector<AzureArrivalWalk> starts_;
    std::vector<AzureArrivalWalk> walks_;
    std::size_t total_count_ = 0;
    bool primed_ = false;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap_;
};

}  // namespace

std::unique_ptr<InvocationSource> makeAzureSource(
    const AzureModelConfig& config)
{
    return std::make_unique<AzureSource>(config);
}

}  // namespace faascache
