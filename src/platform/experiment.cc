#include "platform/experiment.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "platform/experiment_checkpoint.h"

namespace faascache {

namespace {

/** @throws std::invalid_argument naming the first cell without a
 *  trace. */
template <typename Cell>
void
requireTraces(const std::vector<Cell>& cells, const char* who)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].trace == nullptr)
            throw std::invalid_argument(
                std::string(who) + ": cell without a trace (cell index " +
                std::to_string(i) + ")");
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
    requireTraces(cells, "runPlatformSweep");
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
    return dedupeSweepKeys(std::move(keys));
}

std::vector<std::string>
clusterCellKeys(const std::vector<ClusterCell>& cells)
{
    requireTraces(cells, "runClusterSweepReport");
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
    return dedupeSweepKeys(std::move(keys));
}

std::vector<PlatformResult>
runPlatformSweep(const std::vector<PlatformCell>& cells, std::size_t jobs)
{
    SweepOptions options;
    options.strict = true;
    return runPlatformSweepReport(cells, jobs, options).results();
}

SweepReport<PlatformResult>
runPlatformSweepReport(const std::vector<PlatformCell>& cells,
                       std::size_t jobs, const SweepOptions& options)
{
    ThreadPool pool(jobs);
    return runJournaledSweep<PlatformResult>(
        pool, platformCellKeys(cells),
        [&cells]() { return platformSweepFingerprint(cells); }, options,
        "runPlatformSweepReport",
        [&cells](std::size_t index, const CancellationToken& token) {
            const PlatformCell& cell = cells[index];
            ServerConfig server = cell.server;
            server.cancel = &token;
            return runPlatform(*cell.trace, cell.kind, server,
                               cell.policy);
        },
        encodePlatformCheckpointPayload, decodePlatformCheckpointPayload);
}

SweepReport<ClusterResult>
runClusterSweepReport(const std::vector<ClusterCell>& cells,
                      std::size_t jobs, const SweepOptions& options)
{
    ThreadPool pool(jobs);
    return runJournaledSweep<ClusterResult>(
        pool, clusterCellKeys(cells),
        [&cells]() { return clusterSweepFingerprint(cells); }, options,
        "runClusterSweepReport",
        [&cells](std::size_t index, const CancellationToken& token) {
            const ClusterCell& cell = cells[index];
            ClusterConfig config = cell.config;
            config.server.cancel = &token;
            return runCluster(*cell.trace, cell.kind, config, cell.policy);
        },
        encodeClusterCheckpointPayload, decodeClusterCheckpointPayload);
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
