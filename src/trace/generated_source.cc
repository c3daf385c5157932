#include "trace/generated_source.h"

#include <algorithm>
#include <cassert>

#include "util/rng.h"

namespace faascache {

// ---------------------------------------------------------------------------
// Base merge plumbing

void GeneratedSource::primeIfNeeded()
{
    if (primed_)
        return;
    rewindStreams();
    const std::size_t n = streamCount();
    for (std::size_t i = 0; i < n; ++i) {
        if (!streamEmits(i))
            continue;
        TimeUs t = 0;
        if (streamNext(i, t))
            heap_.emplace(t, static_cast<std::uint32_t>(i));
    }
    primed_ = true;
}

bool GeneratedSource::peek(Invocation& out)
{
    primeIfNeeded();
    if (heap_.empty())
        return false;
    out.arrival_us = heap_.top().first;
    out.function = streamFunction(heap_.top().second);
    return true;
}

bool GeneratedSource::next(Invocation& out)
{
    primeIfNeeded();
    if (heap_.empty())
        return false;
    const auto [t, stream] = heap_.top();
    heap_.pop();
    out.arrival_us = t;
    out.function = streamFunction(stream);
    TimeUs next_t = 0;
    if (streamNext(stream, next_t))
        heap_.emplace(next_t, stream);
    return true;
}

void GeneratedSource::reset()
{
    heap_ = {};
    primed_ = false;
}

namespace {

/** Invocations a periodic stream of period `iat_us` starting at
 *  `phase_us` emits before `duration_us` (mirrors patterns.cc). */
std::size_t periodicCount(TimeUs phase_us, TimeUs iat_us,
                          TimeUs duration_us)
{
    if (phase_us >= duration_us)
        return 0;
    return static_cast<std::size_t>(
        (duration_us - phase_us + iat_us - 1) / iat_us);
}

// ---------------------------------------------------------------------------
// Periodic

class PeriodicSource final : public GeneratedSource
{
  public:
    PeriodicSource(std::vector<FunctionSpec> specs,
                   std::vector<TimeUs> iats_us, TimeUs duration_us,
                   std::string name)
        : GeneratedSource(std::move(name), std::move(specs)),
          iats_us_(std::move(iats_us)), duration_us_(duration_us)
    {
        assert(functions().size() == iats_us_.size());
        std::size_t total = 0;
        for (std::size_t i = 0; i < iats_us_.size(); ++i) {
            assert(iats_us_[i] > 0);
            total += periodicCount(static_cast<TimeUs>(i) * kMillisecond,
                                   iats_us_[i], duration_us_);
        }
        setTotalCount(total);
        cursor_.resize(iats_us_.size());
    }

  protected:
    std::size_t streamCount() const override { return iats_us_.size(); }

    void rewindStreams() override
    {
        for (std::size_t i = 0; i < cursor_.size(); ++i)
            cursor_[i] = static_cast<TimeUs>(i) * kMillisecond;
    }

    bool streamNext(std::size_t i, TimeUs& out) override
    {
        if (cursor_[i] >= duration_us_)
            return false;
        out = cursor_[i];
        cursor_[i] += iats_us_[i];
        return true;
    }

  private:
    std::vector<TimeUs> iats_us_;
    TimeUs duration_us_;
    std::vector<TimeUs> cursor_;
};

// ---------------------------------------------------------------------------
// Poisson

class PoissonSource final : public GeneratedSource
{
  public:
    PoissonSource(std::vector<FunctionSpec> specs,
                  std::vector<TimeUs> iats_us, TimeUs duration_us,
                  std::uint64_t seed, std::string name)
        : GeneratedSource(std::move(name), std::move(specs)),
          iats_us_(std::move(iats_us)), duration_us_(duration_us),
          seed_(seed)
    {
        assert(functions().size() == iats_us_.size());
        rngs_.resize(iats_us_.size(), Rng(0));
        cursor_.resize(iats_us_.size());
        // Counting pre-pass: replay every per-function process once so
        // the hint is exact. Same draws as the streaming pass below.
        std::size_t total = 0;
        Rng rng(seed_);
        for (std::size_t i = 0; i < iats_us_.size(); ++i) {
            assert(iats_us_[i] > 0);
            Rng fn_rng = rng.split();
            const double mean = static_cast<double>(iats_us_[i]);
            TimeUs t = static_cast<TimeUs>(fn_rng.exponential(mean));
            while (t < duration_us_) {
                ++total;
                t += static_cast<TimeUs>(fn_rng.exponential(mean));
            }
        }
        setTotalCount(total);
    }

  protected:
    std::size_t streamCount() const override { return iats_us_.size(); }

    void rewindStreams() override
    {
        Rng rng(seed_);
        for (std::size_t i = 0; i < rngs_.size(); ++i) {
            rngs_[i] = rng.split();
            cursor_[i] = static_cast<TimeUs>(
                rngs_[i].exponential(static_cast<double>(iats_us_[i])));
        }
    }

    bool streamNext(std::size_t i, TimeUs& out) override
    {
        if (cursor_[i] >= duration_us_)
            return false;
        out = cursor_[i];
        cursor_[i] += static_cast<TimeUs>(
            rngs_[i].exponential(static_cast<double>(iats_us_[i])));
        return true;
    }

  private:
    std::vector<TimeUs> iats_us_;
    TimeUs duration_us_;
    std::uint64_t seed_;
    std::vector<Rng> rngs_;
    std::vector<TimeUs> cursor_;
};

// ---------------------------------------------------------------------------
// Cyclic (a single already-sorted stream; no merge needed)

class CyclicSource final : public InvocationSource
{
  public:
    CyclicSource(std::vector<FunctionSpec> specs, TimeUs gap_us,
                 TimeUs duration_us, std::string name)
        : name_(std::move(name)), functions_(std::move(specs)),
          gap_us_(gap_us),
          count_(periodicCount(0, gap_us, duration_us))
    {
        assert(gap_us_ > 0);
        assert(!functions_.empty());
    }

    const std::string& name() const override { return name_; }
    const std::vector<FunctionSpec>& functions() const override
    {
        return functions_;
    }

    bool peek(Invocation& out) override
    {
        if (pos_ >= count_)
            return false;
        out.arrival_us = static_cast<TimeUs>(pos_) * gap_us_;
        out.function = static_cast<FunctionId>(pos_ % functions_.size());
        return true;
    }

    bool next(Invocation& out) override
    {
        if (!peek(out))
            return false;
        ++pos_;
        return true;
    }

    void reset() override { pos_ = 0; }

    SourceCountHint countHint() const override
    {
        return SourceCountHint{count_, true};
    }

  private:
    std::string name_;
    std::vector<FunctionSpec> functions_;
    TimeUs gap_us_;
    std::size_t count_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Azure model

class AzureSource final : public GeneratedSource
{
  public:
    explicit AzureSource(const AzureModelConfig& config,
                         std::vector<FunctionSpec> population,
                         std::vector<double> rates, Rng post_catalog_rng,
                         std::function<bool(FunctionId)> keep)
        : GeneratedSource(config.name, {}), config_(config),
          population_(std::move(population)), rates_(std::move(rates)),
          post_catalog_rng_(post_catalog_rng), keep_(std::move(keep)),
          grid_(config)
    {
        // Counting pre-pass: replay every per-function minute-bucket
        // process once. Gives the exact count hint and, when the
        // drop-single-invocation filter is on, the dense remap that
        // Trace::subset() would produce on the materialized path.
        std::vector<std::size_t> counts(population_.size(), 0);
        {
            Rng rng = post_catalog_rng_;
            for (std::size_t i = 0; i < population_.size(); ++i) {
                Rng fn_rng = rng.split();
                std::int64_t c = 0;
                for (std::int64_t minute =
                         grid_.nextBusyMinute(fn_rng, rates_[i], -1, c);
                     minute < grid_.minutes();
                     minute = grid_.nextBusyMinute(fn_rng, rates_[i],
                                                   minute, c))
                    counts[i] += static_cast<std::size_t>(c);
            }
        }
        remap_.assign(population_.size(), kInvalidFunction);
        std::size_t total = 0;
        std::vector<FunctionSpec> kept;
        for (std::size_t i = 0; i < population_.size(); ++i) {
            if (config_.drop_single_invocation_functions && counts[i] < 2)
                continue;
            FunctionSpec spec = population_[i];
            const auto new_id = static_cast<FunctionId>(kept.size());
            spec.id = new_id;
            remap_[i] = new_id;
            kept.push_back(std::move(spec));
            // The keep partition layers on the OUTPUT id space: the
            // catalog (and hence the remap) is partition-independent,
            // only the emitted stream and its exact count shrink.
            if (!keep_ || keep_(new_id))
                total += counts[i];
        }
        setFunctions(std::move(kept));
        setTotalCount(total);
        streams_.resize(population_.size());
    }

  protected:
    std::size_t streamCount() const override { return population_.size(); }

    void rewindStreams() override
    {
        Rng rng = post_catalog_rng_;
        for (auto& s : streams_) {
            s.fn_rng = rng.split();
            s.minute = -1;
            s.count = 0;
            s.k = 0;
            s.bucket_start = 0;
            s.spacing = 0;
        }
    }

    bool streamNext(std::size_t i, TimeUs& out) override
    {
        Stream& s = streams_[i];
        if (s.k == s.count) {
            std::int64_t c = 0;
            s.minute = grid_.nextBusyMinute(s.fn_rng, rates_[i], s.minute, c);
            if (s.minute >= grid_.minutes())
                return false;
            s.bucket_start = s.minute * kMinute;
            s.count = c;
            s.k = 0;
            s.spacing = kMinute / c;
        }
        // Same replay rule as generateAzureTrace(): a single invocation
        // at the bucket start, else `count` evenly spaced ones.
        out = s.bucket_start + s.k * s.spacing;
        ++s.k;
        return true;
    }

    bool streamEmits(std::size_t i) const override
    {
        if (remap_[i] == kInvalidFunction)
            return false;
        return !keep_ || keep_(remap_[i]);
    }

    FunctionId streamFunction(std::size_t i) const override
    {
        return remap_[i];
    }

  private:
    struct Stream
    {
        Rng fn_rng{0};
        std::int64_t minute = -1;
        TimeUs bucket_start = 0;
        std::int64_t count = 0;
        std::int64_t k = 0;
        TimeUs spacing = 0;
    };

    AzureModelConfig config_;
    std::vector<FunctionSpec> population_;
    std::vector<double> rates_;
    Rng post_catalog_rng_;
    std::function<bool(FunctionId)> keep_;
    AzureMinuteGrid grid_;
    std::vector<FunctionId> remap_;
    std::vector<Stream> streams_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories

std::unique_ptr<InvocationSource> makePeriodicSource(
    std::vector<FunctionSpec> specs, std::vector<TimeUs> iats_us,
    TimeUs duration_us, std::string name)
{
    return std::make_unique<PeriodicSource>(std::move(specs),
                                            std::move(iats_us), duration_us,
                                            std::move(name));
}

std::unique_ptr<InvocationSource> makePoissonSource(
    std::vector<FunctionSpec> specs, std::vector<TimeUs> iats_us,
    TimeUs duration_us, std::uint64_t seed, std::string name)
{
    return std::make_unique<PoissonSource>(std::move(specs),
                                           std::move(iats_us), duration_us,
                                           seed, std::move(name));
}

std::unique_ptr<InvocationSource> makeCyclicSource(
    std::vector<FunctionSpec> specs, TimeUs gap_us, TimeUs duration_us,
    std::string name)
{
    return std::make_unique<CyclicSource>(std::move(specs), gap_us,
                                          duration_us, std::move(name));
}

std::unique_ptr<InvocationSource> makeSkewedSizeSource(
    std::vector<FunctionSpec> specs, TimeUs small_iat_us,
    TimeUs large_iat_us, TimeUs duration_us, std::string name)
{
    assert(!specs.empty());
    std::vector<MemMb> sizes;
    sizes.reserve(specs.size());
    for (const auto& spec : specs)
        sizes.push_back(spec.mem_mb);
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                     sizes.end());
    const MemMb median = sizes[sizes.size() / 2];

    std::vector<TimeUs> iats;
    iats.reserve(specs.size());
    for (const auto& spec : specs)
        iats.push_back(spec.mem_mb < median ? small_iat_us : large_iat_us);
    return makePeriodicSource(std::move(specs), std::move(iats),
                              duration_us, std::move(name));
}

std::unique_ptr<InvocationSource> makeAzureSource(
    const AzureModelConfig& config)
{
    return makeAzureSource(config, nullptr);
}

std::unique_ptr<InvocationSource> makeAzureSource(
    const AzureModelConfig& config, std::function<bool(FunctionId)> keep)
{
    // The catalog draw generateAzureTrace() makes; the post-catalog RNG
    // state goes to the streaming source so the per-function split()
    // sequence matches the materialized path.
    Rng rng(config.seed);
    AzureCatalog catalog = drawAzureCatalog(config, rng);
    return std::make_unique<AzureSource>(
        config, std::move(catalog.functions),
        std::move(catalog.rates_per_sec), rng, std::move(keep));
}

}  // namespace faascache
