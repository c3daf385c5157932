/**
 * @file
 * The repository benchmark: times one workload's replay end to end, or,
 * with --trace 1, breaks it into layers with the probes of probes.h.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--references FILE]
 *   perfbench --workload NAME --seed N --work-dir DIR --digest
 *
 * A run's input is the workload's parts (workloadParts()), each an
 * independently seeded trace compiled to `.ftrace` under DIR. A round
 * replays every part once.
 *
 * --trace 0 sets the inputs up several times (setup_s is the median),
 * replays one untimed round (page cache, lazy chunk verification), then
 * replays rounds for S seconds and reports the median round. --trace 1
 * alternates untraced and traced rounds for S seconds (plus, for
 * cluster_sharded, untraced 1-shard rounds) and reports the per-layer
 * table. Every round's payloads are hashed; a round whose digest differs
 * from the run's first, from the stored reference digest of (workload,
 * seed), or (traced, 1-shard) whose payloads differ from its untraced
 * twin's counts as a failed operation. --digest prints one round's
 * digest for the reference file.
 *
 * The last line of stdout is the result object; the line before it
 * carries provenance and the simulated statistics (context only: the
 * model is unvalidated).
 */
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "util/checkpoint_journal.h"
#include "workloads.h"

using namespace faascache;
using namespace faascache::perfbench;

namespace {

/** Shard threads for cluster_sharded: 4, never more than usable cores. */
constexpr std::size_t kShards = 4;

/** Setups per timed run (setup_s is their median). */
constexpr int kSetups = 3;

/** Fewest rounds a run reports a median over. */
constexpr std::size_t kMinRounds = 3;

struct Options
{
    Workload workload = Workload::SimGd;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool digest_only = false;
    std::string work_dir;
    std::string references;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload sim_gd|server_ttl|cluster_sharded --seed N"
                 " --seconds S --trace 0|1 --work-dir DIR"
                 " [--references FILE] [--digest]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--digest") {
            opt.digest_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            have_workload = parseWorkload(value, &opt.workload);
            if (!have_workload)
                usage(argv[0]);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0))
                usage(argv[0]);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage(argv[0]);
            opt.trace = value == "1";
        } else if (arg == "--work-dir") {
            opt.work_dir = value;
        } else if (arg == "--references") {
            opt.references = value;
        } else {
            usage(argv[0]);
        }
        if (end != nullptr && *end != '\0')
            usage(argv[0]);
    }
    if (!have_workload || opt.work_dir.empty())
        usage(argv[0]);
    return opt;
}

/** Cores this process may run on (what `nproc` prints). */
std::size_t
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? static_cast<std::size_t>(online) : 1;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

std::string
hex64(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
    return buffer;
}

/** JSON number with every digit; NaN (no value) prints as null. */
std::string
num(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/**
 * Reference digest of (workload, seed) from FILE, whose lines read
 * `<workload> <seed> <16 hex digits>`; "" when FILE has no entry.
 * @throws std::runtime_error when FILE is named but unreadable.
 */
std::string
referenceDigest(const std::string& file, Workload workload,
                std::uint64_t seed)
{
    if (file.empty())
        return "";
    std::ifstream in(file);
    if (!in)
        throw std::runtime_error("cannot read reference digests " + file);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t line_seed = 0;
        std::string digest;
        if (fields >> name >> line_seed >> digest &&
            name == workloadName(workload) && line_seed == seed)
            return digest;
    }
    return "";
}

/** A run's inputs: every part's compiled trace, mapped. */
struct Setup
{
    struct Part
    {
        std::uint64_t seed = 0;
        std::string path;
        std::shared_ptr<FtraceRegion> region;
        std::size_t invocations = 0;
    };
    std::vector<Part> parts;

    /** Invocations over all parts (one round). */
    std::size_t invocations = 0;
    double seconds = 0.0;

    Setup() = default;
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;
    Setup(Setup&&) = default;  // leaves `parts` empty
    Setup& operator=(Setup&&) = delete;

    ~Setup()
    {
        for (Part& part : parts) {
            part.region.reset();
            std::remove(part.path.c_str());
        }
    }
};

/** Generate, compile and map every part (the cost setup_s measures). */
Setup
setUp(const Options& opt, SourceProbeTotals* generator = nullptr)
{
    Setup setup;
    const std::int64_t start = wallNs();
    const std::size_t parts = workloadParts(opt.workload, Scale::Full);
    for (std::size_t i = 0; i < parts; ++i) {
        Setup::Part part;
        part.seed = partSeed(opt.seed, i);
        part.path = opt.work_dir + "/" + workloadName(opt.workload) + "-" +
            std::to_string(getpid()) + "-" + std::to_string(i) + ".ftrace";
        part.invocations = compileWorkload(
            workloadModel(opt.workload, part.seed, Scale::Full), part.path,
            generator);
        part.region = FtraceRegion::open(part.path);
        setup.invocations += part.invocations;
        setup.parts.push_back(std::move(part));
    }
    setup.seconds = static_cast<double>(wallNs() - start) * 1e-9;
    return setup;
}

/** One replay of every part. */
struct Round
{
    /** Part 0's outcome, without its payload (model outputs, context). */
    ReplayOutcome first;

    /** Every part's payload, when the round was asked to keep them. */
    std::vector<std::string> payloads;

    /** Chained FNV-1a over every part's payload. */
    std::string digest;
    bool conserved = true;
    bool rss_reset = true;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;  ///< highest over the parts
    std::int64_t mail = 0;
};

/** @param keep_payloads Keep payloads for a twin comparison; timed
 *  rounds drop them at once so they stay out of the next part's RSS. */
Round
replayRound(const Options& opt, const Setup& setup, std::size_t shards,
            bool keep_payloads, const Probes& probes = {})
{
    Round round;
    std::uint64_t hash = fnv1a64("");
    for (const Setup::Part& part : setup.parts) {
        ReplayOutcome out = replayWorkload(opt.workload, Scale::Full,
                                           part.region, shards, part.seed,
                                           probes);
        hash = fnv1a64(out.payload, hash);
        round.conserved = round.conserved &&
            out.resolved == static_cast<std::int64_t>(part.invocations);
        round.rss_reset = round.rss_reset && out.rss_reset;
        round.wall_s += static_cast<double>(out.wall_ns) * 1e-9;
        round.cpu_s += static_cast<double>(out.cpu_ns) * 1e-9;
        round.peak_rss_mb = std::max(round.peak_rss_mb, out.peak_rss_mb);
        round.mail += out.mail;
        if (keep_payloads)
            round.payloads.push_back(std::move(out.payload));
        out.payload.clear();
        if (&part == &setup.parts.front())
            round.first = std::move(out);
    }
    round.digest = hex64(hash);
    return round;
}

/** Collects round verdicts: digests, conservation, twin payloads. */
class Checker
{
  public:
    explicit Checker(std::string reference) : reference_(std::move(reference))
    {
    }

    /** Check one round; `twin`, when set, must have equal payloads. */
    void check(const Round& round, const Round* twin = nullptr)
    {
        ++attempted_;
        if (first_digest_.empty())
            first_digest_ = round.digest;
        bool ok = round.conserved && round.digest == first_digest_ &&
            (reference_.empty() || round.digest == reference_);
        if (twin != nullptr)
            ok = ok && !round.payloads.empty() &&
                round.payloads == twin->payloads;
        if (!ok) {
            ++failed_;
            std::cerr << "perfbench: round " << attempted_
                      << " failed its check (digest " << round.digest
                      << ")\n";
        }
    }

    /** A round that threw. */
    void fail(const std::exception& e)
    {
        ++attempted_;
        ++failed_;
        std::cerr << "perfbench: round " << attempted_
                  << " threw: " << e.what() << "\n";
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }
    const std::string& digest() const { return first_digest_; }
    const std::string& reference() const { return reference_; }

  private:
    std::string reference_;
    std::string first_digest_;
    int attempted_ = 0;
    int failed_ = 0;
};

/** Metric name, value, unit; printed in order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(const Checker& checker, const std::vector<Metric>& metrics)
{
    std::ostringstream out;
    out << "{\"correct\": "
        << (checker.failed() == 0 && checker.attempted() > 0 ? "true"
                                                             : "false")
        << ", \"attempted\": " << checker.attempted()
        << ", \"failed\": " << checker.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << num(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

/** Provenance and model outputs (of part 0), one JSON line. */
void
printProvenance(const Options& opt, const Setup& setup, std::size_t shards,
                const Checker& checker, const Round& sample,
                std::size_t rounds)
{
    const ReplayOutcome& part = sample.first;
    std::cout << "{\"provenance\": {\"workload\": \""
              << workloadName(opt.workload) << "\", \"seed\": " << opt.seed
              << ", \"trace\": " << (opt.trace ? 1 : 0)
              << ", \"nproc\": " << usableCores()
              << ", \"shards\": " << shards << ", \"compiler\": \""
              << PERFBENCH_COMPILER << "\", \"build_type\": \""
              << PERFBENCH_BUILD_TYPE << "\", \"parts\": "
              << setup.parts.size()
              << ", \"invocations\": " << setup.invocations
              << ", \"rounds\": " << rounds << ", \"vmhwm_reset\": "
              << (sample.rss_reset ? "true" : "false") << ", \"digest\": \""
              << checker.digest() << "\", \"reference_digest\": \""
              << (checker.reference().empty() ? "none for this seed"
                                              : checker.reference())
              << "\"}, \"model_outputs_unvalidated_part0\": "
                 "{\"cold_start_pct\": "
              << num(part.cold_start_pct)
              << ", \"drop_pct\": " << num(part.drop_pct)
              << ", \"latency_p50_s\": " << num(part.latency_p50_s)
              << ", \"latency_p99_s\": " << num(part.latency_p99_s)
              << "}}" << std::endl;
}

/** The wallNs() reading `seconds` from now. */
std::int64_t
deadlineIn(double seconds)
{
    return wallNs() + static_cast<std::int64_t>(seconds * 1e9);
}

/** --trace 0: end-to-end host cost. */
void
runTimed(const Options& opt, std::size_t shards, const std::string& reference)
{
    std::vector<double> setup_s;
    for (int i = 1; i < kSetups; ++i)
        setup_s.push_back(setUp(opt).seconds);
    const Setup setup = setUp(opt);
    setup_s.push_back(setup.seconds);

    Checker checker(reference);
    // Untimed: faults the mappings in and verifies chunk checksums once.
    const Round warmup = replayRound(opt, setup, shards, false);
    checker.check(warmup);

    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<double> rss_mb;
    const std::int64_t deadline = deadlineIn(opt.seconds);
    while (wall_s.size() < kMinRounds || wallNs() < deadline) {
        try {
            const Round round = replayRound(opt, setup, shards, false);
            checker.check(round);
            std::fprintf(stderr, "perfbench: round %zu: %.6f s %.6f cpu-s\n",
                         wall_s.size(), round.wall_s, round.cpu_s);
            wall_s.push_back(round.wall_s);
            cpu_s.push_back(round.cpu_s);
            rss_mb.push_back(round.peak_rss_mb);
        } catch (const std::exception& e) {
            checker.fail(e);
            if (checker.failed() > static_cast<int>(kMinRounds))
                break;
        }
    }

    const double minv = static_cast<double>(setup.invocations) * 1e-6;
    printProvenance(opt, setup, shards, checker, warmup, wall_s.size());
    printResult(checker, {{"s_per_minv", median(wall_s) / minv, "s/Minv"},
                          {"cpu_s_per_minv", median(cpu_s) / minv, "s/Minv"},
                          {"peak_rss_mb", median(rss_mb), "MB"},
                          {"setup_s", median(setup_s), "s"}});
}

/** --trace 1: the per-layer table. */
void
runTraced(const Options& opt, std::size_t shards,
          const std::string& reference)
{
    SourceProbeTotals generator;
    const Setup setup = setUp(opt, &generator);
    const double inv = static_cast<double>(setup.invocations);
    const bool cluster = opt.workload == Workload::ClusterSharded;

    Checker checker(reference);
    const Round warmup = replayRound(opt, setup, shards, false);
    checker.check(warmup);

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<double> one_shard_s;
    SourceProbeTotals source;
    PolicyProbeTotals policy;
    double shard_cpu_ns = 0.0;
    std::size_t shard_count = 0;
    std::vector<double> imbalance;  // per cluster replay: max / mean CPU
    double mail = 0.0;
    const std::int64_t deadline = deadlineIn(opt.seconds);
    while (traced_s.size() < 2 || wallNs() < deadline) {
        try {
            const Round plain = replayRound(opt, setup, shards, true);
            checker.check(plain);
            untraced_s.push_back(plain.wall_s);

            ShardProbeSink sink;
            Probes probes;
            probes.source = &source;
            probes.policy = &policy;
            probes.shards = &sink;
            const Round traced =
                replayRound(opt, setup, shards, true, probes);
            checker.check(traced, &plain);
            traced_s.push_back(traced.wall_s);
            mail = static_cast<double>(traced.mail);

            // One sample per shard thread, part after part (each part's
            // shard threads are joined before the next part starts).
            const std::vector<ShardSample> samples = sink.samples();
            for (std::size_t i = 0; i + shards <= samples.size();
                 i += shards) {
                double cpu_max = 0.0;
                double cpu_sum = 0.0;
                for (std::size_t k = i; k < i + shards; ++k) {
                    const double cpu =
                        static_cast<double>(samples[k].thread_cpu_ns);
                    cpu_max = std::max(cpu_max, cpu);
                    cpu_sum += cpu;
                }
                imbalance.push_back(
                    ratio(cpu_max * static_cast<double>(shards), cpu_sum));
            }
            for (const ShardSample& sample : samples) {
                source += sample.cursor;
                shard_cpu_ns += static_cast<double>(sample.thread_cpu_ns);
            }
            shard_count += samples.size();

            if (cluster) {
                const Round one = replayRound(opt, setup, 1, true);
                checker.check(one, &plain);
                one_shard_s.push_back(one.wall_s);
            }
        } catch (const std::exception& e) {
            checker.fail(e);
            if (checker.failed() > static_cast<int>(kMinRounds))
                break;
        }
    }

    // Totals over every traced round, per invocation of one round.
    double traced_total_s = 0.0;
    for (double s : traced_s)
        traced_total_s += s;
    const double rounds = static_cast<double>(traced_s.size());
    const double per_inv = 1.0 / (inv * rounds);
    const double trace_ns = static_cast<double>(source.totalNs());
    const double policy_ns = static_cast<double>(policy.totalNs());
    const double victim_calls = static_cast<double>(policy.victims.count);
    const double self_ns_per_inv =
        (traced_total_s * 1e9 - trace_ns - policy_ns) * per_inv;
    // Mean CPU of one shard thread in one replay, against the mean wall
    // time of one part's replay.
    const double shard_busy_frac =
        ratio(ratio(shard_cpu_ns, static_cast<double>(shard_count)),
              traced_total_s * 1e9 /
                  (rounds * static_cast<double>(setup.parts.size())));

    // A layer the workload does not reach reads 0 (see NOTES.md).
    const std::vector<Metric> metrics = {
        {"trace.ns_per_inv", trace_ns * per_inv, "ns"},
        {"trace.peeks_per_inv",
         static_cast<double>(source.peek.count) * per_inv, "calls/inv"},
        {"trace.decodes_per_inv",
         static_cast<double>(source.next.count) * per_inv, "calls/inv"},
        {"trace.gen_ns_per_inv", static_cast<double>(generator.totalNs()) /
             inv,
         "ns"},
        {"policy.victim_calls_per_inv", victim_calls * per_inv, "calls/inv"},
        {"policy.victim_ns_per_call",
         ratio(static_cast<double>(policy.victims.total_ns), victim_calls),
         "ns"},
        {"policy.idle_per_victim_call",
         ratio(static_cast<double>(policy.idle_seen), victim_calls),
         "count"},
        {"policy.victims_per_call",
         ratio(static_cast<double>(policy.victims_returned), victim_calls),
         "count"},
        {"policy.wasted_victim_frac",
         ratio(static_cast<double>(policy.wasted_victim_calls),
               victim_calls),
         "ratio"},
        {"policy.notify_ns_per_inv",
         static_cast<double>(policy.notify.total_ns) * per_inv, "ns"},
        {"policy.expiry_ns_per_inv",
         static_cast<double>(policy.expiry.total_ns) * per_inv, "ns"},
        {"policy.share",
         cluster ? 0.0 : ratio(policy_ns, traced_total_s * 1e9), "ratio"},
        {"sim.self_ns_per_inv",
         opt.workload == Workload::SimGd ? self_ns_per_inv : 0.0, "ns"},
        {"server.self_ns_per_inv",
         opt.workload == Workload::ServerTtl ? self_ns_per_inv : 0.0, "ns"},
        {"cluster.shard_busy_frac", shard_busy_frac, "ratio"},
        {"cluster.shard_imbalance",
         imbalance.empty() ? 0.0 : median(imbalance), "ratio"},
        {"cluster.cursor_share", ratio(trace_ns, shard_cpu_ns), "ratio"},
        {"cluster.speedup_4v1",
         cluster ? median(one_shard_s) / median(untraced_s) : 0.0, "ratio"},
        {"cluster.mail_per_kinv", mail / inv * 1000.0, "1/kinv"},
        {"probe.overhead_frac",
         median(traced_s) / median(untraced_s) - 1.0, "ratio"},
    };
    printProvenance(opt, setup, shards, checker, warmup, traced_s.size());
    printResult(checker, metrics);
}

}  // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::size_t shards =
        opt.workload == Workload::ClusterSharded
        ? std::min(kShards, usableCores())
        : 1;
    try {
        if (opt.digest_only) {
            const Setup setup = setUp(opt);
            std::cout << workloadName(opt.workload) << " " << opt.seed << " "
                      << replayRound(opt, setup, shards, false).digest
                      << std::endl;
        } else {
            const std::string reference =
                referenceDigest(opt.references, opt.workload, opt.seed);
            if (opt.trace)
                runTraced(opt, shards, reference);
            else
                runTimed(opt, shards, reference);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
