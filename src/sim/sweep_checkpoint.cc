#include "sim/sweep_checkpoint.h"

#include <sstream>
#include <utility>

namespace faascache {

std::string
encodeCheckpointPayload(const std::string& key, const SimResult& r)
{
    std::ostringstream out;
    out << escapeJournalToken(key) << ' '
        << escapeJournalToken(r.policy_name) << ' '
        << hexDoubleToken(r.memory_mb) << ' ' << r.warm_starts << ' '
        << r.cold_starts << ' ' << r.dropped << ' ' << r.evictions << ' '
        << r.expirations << ' ' << r.prewarms << ' ' << r.eviction_rounds
        << ' ' << r.background_reclaims << ' ' << r.actual_exec_us << ' '
        << r.baseline_exec_us;
    out << ' ' << r.per_function.size();
    for (const FunctionOutcome& f : r.per_function)
        out << ' ' << f.warm << ' ' << f.cold << ' ' << f.dropped;
    out << ' ' << r.memory_usage.size();
    for (const MemorySample& s : r.memory_usage)
        out << ' ' << s.time_us << ' ' << hexDoubleToken(s.used_mb);
    return out.str();
}

bool
decodeCheckpointPayload(const std::string& payload, std::string* key,
                        SimResult* result)
{
    std::istringstream in(payload);
    std::string token;

    const auto next = [&](std::string* out) {
        if (!(in >> *out))
            return false;
        return true;
    };
    const auto next_i64 = [&](std::int64_t* out) {
        std::string t;
        return next(&t) && parseI64Token(t, out);
    };
    const auto next_double = [&](double* out) {
        std::string t;
        return next(&t) && parseDoubleToken(t, out);
    };

    SimResult r;
    std::string escaped;
    if (!next(&escaped) || !unescapeJournalToken(escaped, key))
        return false;
    if (!next(&escaped) || !unescapeJournalToken(escaped, &r.policy_name))
        return false;
    if (!next_double(&r.memory_mb))
        return false;
    if (!next_i64(&r.warm_starts) || !next_i64(&r.cold_starts) ||
        !next_i64(&r.dropped) || !next_i64(&r.evictions) ||
        !next_i64(&r.expirations) || !next_i64(&r.prewarms) ||
        !next_i64(&r.eviction_rounds) || !next_i64(&r.background_reclaims) ||
        !next_i64(&r.actual_exec_us) || !next_i64(&r.baseline_exec_us))
        return false;

    std::int64_t count = 0;
    if (!next_i64(&count) || count < 0 || count > 100'000'000)
        return false;
    r.per_function.resize(static_cast<std::size_t>(count));
    for (FunctionOutcome& f : r.per_function) {
        if (!next_i64(&f.warm) || !next_i64(&f.cold) ||
            !next_i64(&f.dropped))
            return false;
    }
    if (!next_i64(&count) || count < 0 || count > 100'000'000)
        return false;
    r.memory_usage.resize(static_cast<std::size_t>(count));
    for (MemorySample& s : r.memory_usage) {
        if (!next_i64(&s.time_us) || !next_double(&s.used_mb))
            return false;
    }
    if (in >> token)
        return false;  // trailing garbage
    *result = std::move(r);
    return true;
}

}  // namespace faascache
