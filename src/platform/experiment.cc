#include "platform/experiment.h"

#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "platform/experiment_checkpoint.h"
#include "util/checkpoint_journal.h"
#include "util/sweep_journal.h"
#include "util/thread_pool.h"

namespace faascache {

namespace {

/** @throws std::invalid_argument naming the first malformed cell. */
void
validatePlatformCells(const std::vector<PlatformCell>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].trace == nullptr)
            throw std::invalid_argument(
                "runPlatformSweep: cell without a trace (cell index " +
                std::to_string(i) + ")");
    }
}

/** @throws std::invalid_argument naming the first malformed cell. */
void
validateClusterCells(const std::vector<ClusterCell>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].trace == nullptr)
            throw std::invalid_argument(
                "runClusterSweepReport: cell without a trace (cell "
                "index " +
                std::to_string(i) + ")");
    }
}

/** Deduplicate derived keys with "#n" suffixes, preserving order. */
std::vector<std::string>
dedupeKeys(std::vector<std::string> keys)
{
    std::unordered_set<std::string> used;
    for (std::string& key : keys) {
        if (used.insert(key).second)
            continue;
        for (int n = 2;; ++n) {
            std::string candidate = key + "#" + std::to_string(n);
            if (used.insert(candidate).second) {
                key = std::move(candidate);
                break;
            }
        }
    }
    return keys;
}

/** Strict mode: rethrow the first (submission-order) cell failure. */
template <typename Result>
void
rethrowFirstFailure(const std::vector<CellOutcome<Result>>& cells,
                    const char* who)
{
    for (const CellOutcome<Result>& cell : cells) {
        if (cell.ok())
            continue;
        if (cell.exception)
            std::rethrow_exception(cell.exception);
        throw std::runtime_error(std::string(who) + ": cell " + cell.key +
                                 " " + cellStatusName(cell.status) + ": " +
                                 cell.error);
    }
}

}  // namespace

double
PlatformComparison::warmStartRatio() const
{
    if (openwhisk.warm_starts == 0)
        return faascache.warm_starts > 0 ? 1e9 : 1.0;
    return static_cast<double>(faascache.warm_starts) /
        static_cast<double>(openwhisk.warm_starts);
}

double
PlatformComparison::servedRatio() const
{
    if (openwhisk.served() == 0)
        return faascache.served() > 0 ? 1e9 : 1.0;
    return static_cast<double>(faascache.served()) /
        static_cast<double>(openwhisk.served());
}

double
PlatformComparison::latencyImprovement() const
{
    const double fc = faascache.meanLatencySec();
    if (fc <= 0.0)
        return 1.0;
    return openwhisk.meanLatencySec() / fc;
}

PlatformResult
runPlatform(const Trace& trace, PolicyKind kind,
            const ServerConfig& server_config,
            const PolicyConfig& policy_config)
{
    Server server(makePolicy(kind, policy_config), server_config);
    return server.run(trace);
}

std::vector<std::string>
platformCellKeys(const std::vector<PlatformCell>& cells)
{
    validatePlatformCells(cells);
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const PlatformCell& cell : cells) {
        std::string key = cell.key;
        if (key.empty()) {
            char mem[32];
            std::snprintf(mem, sizeof mem, "%g", cell.server.memory_mb);
            key = cell.trace->name() + "/" + policyKindName(cell.kind) +
                "/" + mem + "MB";
        }
        keys.push_back(std::move(key));
    }
    return dedupeKeys(std::move(keys));
}

std::vector<std::string>
clusterCellKeys(const std::vector<ClusterCell>& cells)
{
    validateClusterCells(cells);
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const ClusterCell& cell : cells) {
        std::string key = cell.key;
        if (key.empty()) {
            char shape[48];
            std::snprintf(shape, sizeof shape, "%zux%g",
                          cell.config.num_servers,
                          cell.config.server.memory_mb);
            key = cell.trace->name() + "/" + policyKindName(cell.kind) +
                "/" + shape + "MB";
        }
        keys.push_back(std::move(key));
    }
    return dedupeKeys(std::move(keys));
}

std::vector<PlatformResult>
runPlatformSweep(const std::vector<PlatformCell>& cells, std::size_t jobs)
{
    validatePlatformCells(cells);
    ThreadPool pool(jobs);
    return parallelMap(pool, cells, [](const PlatformCell& cell) {
        return runPlatform(*cell.trace, cell.kind, cell.server, cell.policy);
    });
}

std::size_t
PlatformSweepReport::countWithStatus(CellStatus status) const
{
    std::size_t count = 0;
    for (const CellOutcome<PlatformResult>& cell : cells)
        count += cell.status == status ? 1 : 0;
    return count;
}

bool
PlatformSweepReport::allOk() const
{
    return countWithStatus(CellStatus::Ok) == cells.size();
}

std::vector<PlatformResult>
PlatformSweepReport::results() const
{
    std::vector<PlatformResult> out;
    out.reserve(cells.size());
    for (const CellOutcome<PlatformResult>& cell : cells)
        out.push_back(cell.result);
    return out;
}

std::size_t
ClusterSweepReport::countWithStatus(CellStatus status) const
{
    std::size_t count = 0;
    for (const CellOutcome<ClusterResult>& cell : cells)
        count += cell.status == status ? 1 : 0;
    return count;
}

bool
ClusterSweepReport::allOk() const
{
    return countWithStatus(CellStatus::Ok) == cells.size();
}

std::vector<ClusterResult>
ClusterSweepReport::results() const
{
    std::vector<ClusterResult> out;
    out.reserve(cells.size());
    for (const CellOutcome<ClusterResult>& cell : cells)
        out.push_back(cell.result);
    return out;
}

PlatformSweepReport
runPlatformSweepReport(const std::vector<PlatformCell>& cells,
                       std::size_t jobs,
                       const PlatformSweepOptions& options)
{
    validatePlatformCells(cells);
    const std::vector<std::string> keys = platformCellKeys(cells);

    PlatformSweepReport report;
    report.cells.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.cells[i].key = keys[i];

    const std::uint64_t fingerprint = options.checkpoint_path.empty()
        ? 0
        : platformSweepFingerprint(cells);
    std::unique_ptr<CheckpointJournalWriter> writer = openSweepJournal(
        options.checkpoint_path, options.resume,
        "runPlatformSweepReport", fingerprint, keys, report.cells,
        &report.restored, &report.torn_tail,
        decodePlatformCheckpointPayload);

    CellHarnessOptions harness;
    harness.deadline_s = options.deadline_s;
    harness.max_retries = options.max_retries;
    harness.cancel = options.cancel;

    ThreadPool pool(jobs);
    report.completed = runHarnessedCells(
        pool, report.cells,
        [&cells](std::size_t index, int /*attempt*/,
                 const CancellationToken& token) {
            const PlatformCell& cell = cells[index];
            ServerConfig server = cell.server;
            server.cancel = &token;
            return runPlatform(*cell.trace, cell.kind, server,
                               cell.policy);
        },
        [&writer](std::size_t /*index*/,
                  const CellOutcome<PlatformResult>& outcome) {
            if (writer)
                writer->append(encodePlatformCheckpointPayload(
                    outcome.key, outcome.result));
        },
        harness);

    if (options.strict)
        rethrowFirstFailure(report.cells, "runPlatformSweepReport");
    return report;
}

ClusterSweepReport
runClusterSweepReport(const std::vector<ClusterCell>& cells,
                      std::size_t jobs,
                      const PlatformSweepOptions& options)
{
    validateClusterCells(cells);
    const std::vector<std::string> keys = clusterCellKeys(cells);

    ClusterSweepReport report;
    report.cells.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.cells[i].key = keys[i];

    const std::uint64_t fingerprint = options.checkpoint_path.empty()
        ? 0
        : clusterSweepFingerprint(cells);
    std::unique_ptr<CheckpointJournalWriter> writer = openSweepJournal(
        options.checkpoint_path, options.resume, "runClusterSweepReport",
        fingerprint, keys, report.cells, &report.restored,
        &report.torn_tail, decodeClusterCheckpointPayload);

    CellHarnessOptions harness;
    harness.deadline_s = options.deadline_s;
    harness.max_retries = options.max_retries;
    harness.cancel = options.cancel;

    ThreadPool pool(jobs);
    report.completed = runHarnessedCells(
        pool, report.cells,
        [&cells](std::size_t index, int /*attempt*/,
                 const CancellationToken& token) {
            const ClusterCell& cell = cells[index];
            ClusterConfig config = cell.config;
            config.server.cancel = &token;
            return runCluster(*cell.trace, cell.kind, config, cell.policy);
        },
        [&writer](std::size_t /*index*/,
                  const CellOutcome<ClusterResult>& outcome) {
            if (writer)
                writer->append(encodeClusterCheckpointPayload(
                    outcome.key, outcome.result));
        },
        harness);

    if (options.strict)
        rethrowFirstFailure(report.cells, "runClusterSweepReport");
    return report;
}

PlatformComparison
compareOpenWhiskVsFaasCache(const Trace& trace,
                            const ServerConfig& server_config,
                            const PolicyConfig& policy_config,
                            std::size_t jobs)
{
    // Vanilla OpenWhisk: 10-minute TTL, and under memory pressure the
    // ContainerPool removes the first free container in insertion order
    // (oldest created), blind to how hot the container is.
    PolicyConfig openwhisk_config = policy_config;
    openwhisk_config.ttl_victim_order = TtlVictimOrder::OldestCreated;

    PlatformCell openwhisk{&trace, PolicyKind::Ttl, server_config,
                           openwhisk_config, {}};
    PlatformCell faascache{&trace, PolicyKind::GreedyDual, server_config,
                           policy_config, {}};
    std::vector<PlatformResult> results =
        runPlatformSweep({openwhisk, faascache}, jobs);

    PlatformComparison out;
    out.openwhisk = std::move(results[0]);
    out.faascache = std::move(results[1]);
    return out;
}

}  // namespace faascache
