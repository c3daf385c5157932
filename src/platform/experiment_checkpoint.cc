#include "platform/experiment_checkpoint.h"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "sim/sweep_runner.h"
#include "util/checkpoint_journal.h"

namespace faascache {

namespace {

/** Bounds vector counts read from a payload (corruption guard). */
constexpr std::int64_t kMaxCount = 100'000'000;

/** Token-stream reader shared by the decode paths. */
struct TokenReader
{
    std::istringstream in;

    explicit TokenReader(const std::string& payload) : in(payload) {}

    bool next(std::string* out) { return static_cast<bool>(in >> *out); }

    bool nextString(std::string* out)
    {
        std::string escaped;
        return next(&escaped) && unescapeJournalToken(escaped, out);
    }

    bool nextI64(std::int64_t* out)
    {
        std::string t;
        return next(&t) && parseI64Token(t, out);
    }

    bool nextDouble(double* out)
    {
        std::string t;
        return next(&t) && parseDoubleToken(t, out);
    }

    bool nextInt(int* out)
    {
        std::int64_t wide = 0;
        if (!nextI64(&wide))
            return false;
        *out = static_cast<int>(wide);
        return true;
    }

    bool nextSize(std::size_t* out)
    {
        std::int64_t wide = 0;
        if (!nextI64(&wide) || wide < 0)
            return false;
        *out = static_cast<std::size_t>(wide);
        return true;
    }

    bool nextBool(bool* out)
    {
        std::int64_t wide = 0;
        if (!nextI64(&wide) || (wide != 0 && wide != 1))
            return false;
        *out = wide == 1;
        return true;
    }

    bool nextCount(std::size_t* out)
    {
        std::int64_t wide = 0;
        if (!nextI64(&wide) || wide < 0 || wide > kMaxCount)
            return false;
        *out = static_cast<std::size_t>(wide);
        return true;
    }

    bool atEnd()
    {
        std::string t;
        return !(in >> t);
    }
};

void
encodeServerConfigFields(std::ostringstream& out, const ServerConfig& c)
{
    out << c.cores << ' ' << hexDoubleToken(c.memory_mb) << ' '
        << c.queue_capacity << ' ' << c.queue_timeout_us << ' '
        << c.maintenance_interval_us << ' ' << (c.enable_prewarm ? 1 : 0)
        << ' ' << c.cold_start_cpu_slots << ' '
        << (c.overload.admission.enabled ? 1 : 0) << ' '
        << c.overload.admission.target_delay_us << ' '
        << c.overload.admission.interval_us << ' '
        << (c.overload.brownout.enabled ? 1 : 0) << ' '
        << c.overload.brownout.min_duration_us << ' '
        << (c.overload.brownout.on_admission_violation ? 1 : 0) << ' '
        << (c.overload.brownout.on_memory_pressure ? 1 : 0);
}

bool
decodeServerConfigFields(TokenReader& in, ServerConfig* c)
{
    return in.nextInt(&c->cores) && in.nextDouble(&c->memory_mb) &&
        in.nextSize(&c->queue_capacity) &&
        in.nextI64(&c->queue_timeout_us) &&
        in.nextI64(&c->maintenance_interval_us) &&
        in.nextBool(&c->enable_prewarm) &&
        in.nextInt(&c->cold_start_cpu_slots) &&
        in.nextBool(&c->overload.admission.enabled) &&
        in.nextI64(&c->overload.admission.target_delay_us) &&
        in.nextI64(&c->overload.admission.interval_us) &&
        in.nextBool(&c->overload.brownout.enabled) &&
        in.nextI64(&c->overload.brownout.min_duration_us) &&
        in.nextBool(&c->overload.brownout.on_admission_violation) &&
        in.nextBool(&c->overload.brownout.on_memory_pressure);
}

void
encodeRobustnessFields(std::ostringstream& out,
                       const RobustnessCounters& r)
{
    out << r.spawn_failures << ' ' << r.straggler_cold_starts << ' '
        << r.reclaim_stalls << ' ' << r.crashes << ' ' << r.restarts << ' '
        << r.crash_aborted << ' ' << r.crash_flushed_containers << ' '
        << r.dropped_unavailable << ' ' << r.redispatch_cold_starts << ' '
        << r.oom_kills << ' ' << r.downtime_us;
}

bool
decodeRobustnessFields(TokenReader& in, RobustnessCounters* r)
{
    return in.nextI64(&r->spawn_failures) &&
        in.nextI64(&r->straggler_cold_starts) &&
        in.nextI64(&r->reclaim_stalls) && in.nextI64(&r->crashes) &&
        in.nextI64(&r->restarts) && in.nextI64(&r->crash_aborted) &&
        in.nextI64(&r->crash_flushed_containers) &&
        in.nextI64(&r->dropped_unavailable) &&
        in.nextI64(&r->redispatch_cold_starts) &&
        in.nextI64(&r->oom_kills) && in.nextI64(&r->downtime_us);
}

void
encodeOverloadFields(std::ostringstream& out, const OverloadCounters& o)
{
    out << o.admission_shed << ' ' << o.admission_violations << ' '
        << o.brownout_denied_cold << ' ' << o.brownout_windows << ' '
        << o.brownout_us;
}

bool
decodeOverloadFields(TokenReader& in, OverloadCounters* o)
{
    return in.nextI64(&o->admission_shed) &&
        in.nextI64(&o->admission_violations) &&
        in.nextI64(&o->brownout_denied_cold) &&
        in.nextI64(&o->brownout_windows) && in.nextI64(&o->brownout_us);
}

void
encodePlatformFields(std::ostringstream& out, const PlatformResult& r)
{
    out << escapeJournalToken(r.policy_name) << ' ';
    encodeServerConfigFields(out, r.config);
    out << ' ' << r.warm_starts << ' ' << r.cold_starts << ' '
        << r.dropped_queue_full << ' ' << r.dropped_timeout << ' '
        << r.dropped_oversize << ' ' << r.evictions << ' '
        << r.expirations << ' ' << r.prewarms << ' ';
    encodeRobustnessFields(out, r.robustness);
    out << ' ';
    encodeOverloadFields(out, r.overload);
    out << ' ' << r.last_congested_us;
    // The sparse records are written as the catalog-wide rows the
    // format has always carried: a function without a record is a zero
    // row.
    const std::vector<PlatformResult::FunctionRecord>& records =
        r.function_records;
    out << ' ' << r.catalog_size;
    auto record = records.begin();
    for (std::size_t f = 0; f < r.catalog_size; ++f) {
        if (record != records.end() && record->function == f) {
            const FunctionOutcome& o = record->outcome;
            out << ' ' << o.warm << ' ' << o.cold << ' ' << o.dropped;
            ++record;
        } else {
            out << " 0 0 0";
        }
    }
    out << ' ' << r.latencies_sec.size();
    for (double latency : r.latencies_sec)
        out << ' ' << hexDoubleToken(latency);
    out << ' ' << r.catalog_size;
    record = records.begin();
    const std::string zero_sum = hexDoubleToken(0.0);
    for (std::size_t f = 0; f < r.catalog_size; ++f) {
        if (record != records.end() && record->function == f) {
            out << ' ' << hexDoubleToken(record->latency_sum_sec);
            ++record;
        } else {
            out << ' ' << zero_sum;
        }
    }
    // Records are ascending ids below catalog_size, so every one was
    // written.
    assert(record == records.end());
}

bool
decodePlatformFields(TokenReader& in, PlatformResult* result)
{
    PlatformResult r;
    if (!in.nextString(&r.policy_name))
        return false;
    if (!decodeServerConfigFields(in, &r.config))
        return false;
    if (!in.nextI64(&r.warm_starts) || !in.nextI64(&r.cold_starts) ||
        !in.nextI64(&r.dropped_queue_full) ||
        !in.nextI64(&r.dropped_timeout) ||
        !in.nextI64(&r.dropped_oversize) || !in.nextI64(&r.evictions) ||
        !in.nextI64(&r.expirations) || !in.nextI64(&r.prewarms))
        return false;
    if (!decodeRobustnessFields(in, &r.robustness))
        return false;
    if (!decodeOverloadFields(in, &r.overload) ||
        !in.nextI64(&r.last_congested_us))
        return false;

    // Catalog-wide rows in, one record per non-zero outcome out. The
    // sums must cover the same catalog, and a function without a record
    // must sum to +0.0, or the record set could not re-encode these
    // bytes.
    std::size_t count = 0;
    if (!in.nextCount(&count))
        return false;
    r.catalog_size = count;
    for (std::size_t f = 0; f < r.catalog_size; ++f) {
        FunctionOutcome o;
        if (!in.nextI64(&o.warm) || !in.nextI64(&o.cold) ||
            !in.nextI64(&o.dropped))
            return false;
        if (o != FunctionOutcome{}) {
            r.function_records.push_back(
                {static_cast<FunctionId>(f), o, 0.0});
        }
    }
    if (!in.nextCount(&count))
        return false;
    r.latencies_sec.resize(count);
    for (double& latency : r.latencies_sec) {
        if (!in.nextDouble(&latency))
            return false;
    }
    if (!in.nextCount(&count) || count != r.catalog_size)
        return false;
    auto record = r.function_records.begin();
    for (std::size_t f = 0; f < r.catalog_size; ++f) {
        double sum = 0.0;
        if (!in.nextDouble(&sum))
            return false;
        if (record != r.function_records.end() && record->function == f) {
            record->latency_sum_sec = sum;
            ++record;
        } else if (sum != 0.0 || std::signbit(sum)) {
            return false;
        }
    }
    *result = std::move(r);
    return true;
}

void
hashHexDouble(std::ostringstream& out, double value)
{
    out << hexDoubleToken(value) << ';';
}

void
hashServerConfig(std::ostringstream& out, const ServerConfig& c)
{
    out << c.cores << ';';
    hashHexDouble(out, c.memory_mb);
    out << c.queue_capacity << ';' << c.queue_timeout_us << ';'
        << c.maintenance_interval_us << ';' << (c.enable_prewarm ? 1 : 0)
        << ';' << c.cold_start_cpu_slots << ';'
        << poolBackendName(c.pool_backend) << ';'
        << platformBackendName(c.platform_backend) << ';'
        << (c.overload.admission.enabled ? 1 : 0) << ';'
        << c.overload.admission.target_delay_us << ';'
        << c.overload.admission.interval_us << ';'
        << (c.overload.brownout.enabled ? 1 : 0) << ';'
        << c.overload.brownout.min_duration_us << ';'
        << (c.overload.brownout.on_admission_violation ? 1 : 0) << ';'
        << (c.overload.brownout.on_memory_pressure ? 1 : 0) << ';';
}

void
hashTrace(std::ostringstream& out,
          std::unordered_map<const Trace*, std::uint64_t>& cache,
          const Trace* trace)
{
    auto it = cache.find(trace);
    if (it == cache.end())
        it = cache.emplace(trace, traceFingerprint(*trace)).first;
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, it->second);
    out << hash << ';';
}

}  // namespace

std::string
encodePlatformCheckpointPayload(const std::string& key,
                                const PlatformResult& result)
{
    std::ostringstream out;
    out << escapeJournalToken(key) << ' ';
    encodePlatformFields(out, result);
    return out.str();
}

bool
decodePlatformCheckpointPayload(const std::string& payload,
                                std::string* key, PlatformResult* result)
{
    TokenReader in(payload);
    if (!in.nextString(key))
        return false;
    PlatformResult r;
    if (!decodePlatformFields(in, &r) || !in.atEnd())
        return false;
    *result = std::move(r);
    return true;
}

std::string
encodeClusterCheckpointPayload(const std::string& key,
                               const ClusterResult& result)
{
    std::ostringstream out;
    out << escapeJournalToken(key) << ' ' << result.retries << ' '
        << result.failovers << ' ' << result.shed_requests << ' '
        << result.failed_requests << ' '
        << result.retry_budget_exhausted << ' '
        << result.partition_unreachable << ' ' << result.breaker_opens
        << ' ' << result.breaker_closes << ' ' << result.breaker_probes
        << ' ' << result.servers.size();
    for (const PlatformResult& server : result.servers) {
        out << ' ';
        encodePlatformFields(out, server);
    }
    return out.str();
}

bool
decodeClusterCheckpointPayload(const std::string& payload,
                               std::string* key, ClusterResult* result)
{
    TokenReader in(payload);
    if (!in.nextString(key))
        return false;
    ClusterResult r;
    if (!in.nextI64(&r.retries) || !in.nextI64(&r.failovers) ||
        !in.nextI64(&r.shed_requests) || !in.nextI64(&r.failed_requests) ||
        !in.nextI64(&r.retry_budget_exhausted) ||
        !in.nextI64(&r.partition_unreachable) ||
        !in.nextI64(&r.breaker_opens) || !in.nextI64(&r.breaker_closes) ||
        !in.nextI64(&r.breaker_probes))
        return false;
    std::size_t count = 0;
    if (!in.nextCount(&count))
        return false;
    r.servers.resize(count);
    for (PlatformResult& server : r.servers) {
        if (!decodePlatformFields(in, &server))
            return false;
    }
    if (!in.atEnd())
        return false;
    *result = std::move(r);
    return true;
}

std::uint64_t
platformSweepFingerprint(const std::vector<PlatformCell>& cells)
{
    // Mirrors sweepGridFingerprint()'s depth: trace contents, keys, and
    // the knobs the runner itself consumes. Policy tunables beyond the
    // kind are compiled into the bench, like the sim grid's policy
    // factories.
    const std::vector<std::string> keys = platformCellKeys(cells);
    std::unordered_map<const Trace*, std::uint64_t> trace_hashes;
    std::ostringstream out;
    // v6: lockstep bump with the cluster grid (one cluster engine), so
    // a mixed-grid journal from either era is rejected as a whole.
    out << "faascache-platform-grid-v6;" << cells.size() << ';';
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const PlatformCell& cell = cells[i];
        out << keys[i] << ';';
        hashTrace(out, trace_hashes, cell.trace);
        out << policyKindName(cell.kind) << ';';
        hashServerConfig(out, cell.server);
    }
    return fnv1a64(out.str());
}

std::uint64_t
clusterSweepFingerprint(const std::vector<ClusterCell>& cells)
{
    const std::vector<std::string> keys = clusterCellKeys(cells);
    std::unordered_map<const Trace*, std::uint64_t> trace_hashes;
    std::ostringstream out;
    // v7: one cluster path, so fault-free runs also end every server at
    // the fleet horizon, and journals of an older version are rejected.
    // Results do not depend on the shard count, so it is not hashed: a
    // journal resumes under any shards value.
    out << "faascache-cluster-grid-v7;" << cells.size() << ';';
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ClusterCell& cell = cells[i];
        const ClusterConfig& config = cell.config;
        out << keys[i] << ';';
        hashTrace(out, trace_hashes, cell.trace);
        out << policyKindName(cell.kind) << ';' << config.num_servers
            << ';' << static_cast<int>(config.balancing) << ';'
            << config.seed << ';';
        hashServerConfig(out, config.server);
        out << config.failover.max_retries << ';'
            << config.failover.base_backoff_us << ';'
            << config.failover.request_timeout_us << ';'
            << config.failover.shed_queue_depth << ';';
        hashHexDouble(out, config.failover.backoff_jitter_frac);
        hashHexDouble(out, config.failover.retry_budget.ratio);
        hashHexDouble(out, config.failover.retry_budget.burst);
        out << config.failover.breaker.failure_threshold << ';'
            << config.failover.breaker.open_duration_us << ';';
        const FaultPlan& faults = config.faults;
        out << faults.crashes.size() << ';';
        for (const CrashEvent& crash : faults.crashes)
            out << crash.server << ',' << crash.at_us << ','
                << crash.restart_after_us << ';';
        out << faults.crash_bursts.size() << ';';
        for (const CrashBurst& burst : faults.crash_bursts)
            out << burst.at_us << ',' << burst.window_us << ','
                << burst.servers << ',' << burst.restart_after_us << ','
                << burst.seed << ';';
        out << faults.partitions.size() << ';';
        for (const PartitionWindow& p : faults.partitions)
            out << p.server << ',' << p.from_us << ',' << p.until_us
                << ';';
        out << faults.oom_kills.size() << ';';
        for (const OomKillEvent& o : faults.oom_kills)
            out << o.server << ',' << o.at_us << ';';
        hashHexDouble(out, faults.spawn_failure_prob);
        out << faults.spawn_retry_delay_us << ';';
        hashHexDouble(out, faults.straggler_prob);
        hashHexDouble(out, faults.straggler_multiplier);
        hashHexDouble(out, faults.reclaim_stall_prob);
        out << faults.reclaim_stall_us << ';' << faults.seed << ';';
    }
    return fnv1a64(out.str());
}

}  // namespace faascache
