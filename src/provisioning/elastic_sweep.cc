#include "provisioning/elastic_sweep.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/sweep_checkpoint.h"
#include "sim/sweep_runner.h"

namespace faascache {

namespace {

/** Bounds the timeline count read from a payload (corruption guard). */
constexpr std::int64_t kMaxTimeline = 100'000'000;

/** @throws std::invalid_argument naming the first malformed cell. */
void
validateElasticCells(const std::vector<ElasticCell>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].trace == nullptr)
            throw std::invalid_argument(
                "runElasticSweepReport: cell without a trace (cell "
                "index " +
                std::to_string(i) + ")");
    }
}

bool
nextI64(std::istringstream& in, std::int64_t* out)
{
    std::string token;
    return static_cast<bool>(in >> token) && parseI64Token(token, out);
}

bool
nextDouble(std::istringstream& in, double* out)
{
    std::string token;
    return static_cast<bool>(in >> token) && parseDoubleToken(token, out);
}

void
hashHexDouble(std::ostringstream& out, double value)
{
    out << hexDoubleToken(value) << ';';
}

}  // namespace

std::vector<std::string>
elasticCellKeys(const std::vector<ElasticCell>& cells)
{
    validateElasticCells(cells);
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const ElasticCell& cell : cells)
        keys.push_back(cell.key.empty()
                           ? cell.trace->name() + "/" +
                               policyKindName(cell.kind) + "/elastic"
                           : cell.key);
    return dedupeSweepKeys(std::move(keys));
}

std::uint64_t
elasticSweepFingerprint(const std::vector<ElasticCell>& cells)
{
    const std::vector<std::string> keys = elasticCellKeys(cells);
    std::unordered_map<const Trace*, std::uint64_t> trace_hashes;
    std::ostringstream out;
    out << "faascache-elastic-grid-v2;" << cells.size() << ';';
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ElasticCell& cell = cells[i];
        auto it = trace_hashes.find(cell.trace);
        if (it == trace_hashes.end())
            it = trace_hashes
                     .emplace(cell.trace, traceFingerprint(*cell.trace))
                     .first;
        char trace_hash[24];
        std::snprintf(trace_hash, sizeof trace_hash, "%016llx",
                      static_cast<unsigned long long>(it->second));
        out << keys[i] << ';' << trace_hash << ';'
            << policyKindName(cell.kind) << ';';
        const ControllerConfig& ctl = cell.controller;
        hashHexDouble(out, ctl.target_miss_speed);
        hashHexDouble(out, ctl.deadband);
        hashHexDouble(out, ctl.arrival_smoothing_alpha);
        hashHexDouble(out, ctl.min_size_mb);
        hashHexDouble(out, ctl.max_size_mb);
        hashHexDouble(out, ctl.overload_grow_frac);
        const ElasticConfig& ela = cell.elastic;
        out << ela.control_period_us << ';';
        hashHexDouble(out, ela.initial_size_mb);
        out << ela.curve_refresh_period_us << ';';
        hashHexDouble(out, ela.online_sample_rate);
        out << ela.capacity_loss.size() << ';';
        for (const CapacityLossWindow& window : ela.capacity_loss) {
            out << window.from_us << ',' << window.until_us << ',';
            hashHexDouble(out, window.available_fraction);
        }
    }
    return fnv1a64(out.str());
}

std::string
encodeElasticCheckpointPayload(const std::string& key,
                               const ElasticResult& result)
{
    std::ostringstream out;
    out << escapeJournalToken(key) << ' ' << result.timeline.size();
    for (const ElasticSample& sample : result.timeline) {
        out << ' ' << sample.time_us << ' '
            << hexDoubleToken(sample.cache_size_mb) << ' '
            << hexDoubleToken(sample.arrival_rate) << ' '
            << hexDoubleToken(sample.miss_speed) << ' '
            << hexDoubleToken(sample.smoothed_arrival) << ' '
            << hexDoubleToken(sample.available_fraction) << ' '
            << hexDoubleToken(sample.overload_pressure);
    }
    // The SimResult block rides along as a suffix via its own codec
    // (keyed identically; the decoder checks the keys match).
    out << ' ' << encodeCheckpointPayload(key, result.sim);
    return out.str();
}

bool
decodeElasticCheckpointPayload(const std::string& payload,
                               std::string* key, ElasticResult* result)
{
    std::istringstream in(payload);
    std::string escaped;
    if (!(in >> escaped) || !unescapeJournalToken(escaped, key))
        return false;

    ElasticResult r;
    std::int64_t count = 0;
    if (!nextI64(in, &count) || count < 0 || count > kMaxTimeline)
        return false;
    r.timeline.resize(static_cast<std::size_t>(count));
    for (ElasticSample& sample : r.timeline) {
        if (!nextI64(in, &sample.time_us) ||
            !nextDouble(in, &sample.cache_size_mb) ||
            !nextDouble(in, &sample.arrival_rate) ||
            !nextDouble(in, &sample.miss_speed) ||
            !nextDouble(in, &sample.smoothed_arrival) ||
            !nextDouble(in, &sample.available_fraction) ||
            !nextDouble(in, &sample.overload_pressure))
            return false;
    }

    // The rest of the payload is the embedded SimResult block; its
    // codec rejects trailing garbage, so this consumes exactly the
    // remainder.
    std::string sim_payload;
    if (!std::getline(in, sim_payload))
        return false;
    std::string sim_key;
    if (!decodeCheckpointPayload(sim_payload, &sim_key, &r.sim) ||
        sim_key != *key)
        return false;

    *result = std::move(r);
    return true;
}

SweepReport<ElasticResult>
runElasticSweepReport(const std::vector<ElasticCell>& cells,
                      std::size_t jobs, const SweepOptions& options)
{
    ThreadPool pool(jobs);
    return runJournaledSweep<ElasticResult>(
        pool, elasticCellKeys(cells),
        [&cells]() { return elasticSweepFingerprint(cells); }, options,
        "runElasticSweepReport",
        [&cells](std::size_t index, const CancellationToken& token) {
            const ElasticCell& cell = cells[index];
            ElasticConfig elastic = cell.elastic;
            elastic.cancel = &token;
            return runElasticSimulation(*cell.trace,
                                        makePolicy(cell.kind, cell.policy),
                                        cell.controller, elastic);
        },
        encodeElasticCheckpointPayload, decodeElasticCheckpointPayload);
}

}  // namespace faascache
