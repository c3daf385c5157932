/**
 * @file
 * Harnessed sweep over elastic-scaling experiments (Figure 9), giving
 * runElasticSimulation() the same crash-safety contract the sim,
 * platform, and cluster sweeps have: watchdog deadlines, bounded
 * retry, checkpoint/resume (an ElasticResult journal flavour that
 * embeds the SimResult codec), and cooperative cancellation, with
 * submission-order results that are byte-identical for any worker
 * count.
 */
#ifndef FAASCACHE_PROVISIONING_ELASTIC_SWEEP_H_
#define FAASCACHE_PROVISIONING_ELASTIC_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "provisioning/elastic_simulation.h"
#include "util/sweep_journal.h"

namespace faascache {

/** One independent elastic-scaling run of a sweep. */
struct ElasticCell
{
    /** Workload to replay (non-owning; must outlive the sweep). */
    const Trace* trace = nullptr;
    PolicyKind kind = PolicyKind::GreedyDual;
    PolicyConfig policy;
    ControllerConfig controller;
    ElasticConfig elastic;

    /**
     * Stable cell identity for checkpointing and error reports. Leave
     * empty to have the runner derive "<trace>/<policy>/elastic" (with
     * a "#n" suffix on duplicates).
     */
    std::string key;
};

/**
 * Effective per-cell keys of an elastic sweep (cell.key or the derived
 * default, deduplicated with "#n"). Requires non-null traces.
 */
std::vector<std::string> elasticCellKeys(
    const std::vector<ElasticCell>& cells);

/**
 * Fingerprint of an elastic sweep grid: trace contents, effective cell
 * keys, policy kinds, and every controller/elastic knob (the --resume
 * safety check).
 */
std::uint64_t elasticSweepFingerprint(
    const std::vector<ElasticCell>& cells);

/**
 * @name ElasticResult payload codec
 * The payload is `<key> <timeline...>` followed by the cell's embedded
 * SimResult payload (sim/sweep_checkpoint.h codec, same key); doubles
 * are hexfloat, so a restored result is bit-for-bit equal to the
 * computed one.
 * @{
 */
std::string encodeElasticCheckpointPayload(const std::string& key,
                                           const ElasticResult& result);

/** @return false when the payload is malformed. */
bool decodeElasticCheckpointPayload(const std::string& payload,
                                    std::string* key,
                                    ElasticResult* result);
/** @} */

/**
 * Elastic flavour of runSweepReport(): fan independent
 * runElasticSimulation() cells across a worker pool through the one
 * sweep driver (util/sweep_journal.h), with the same
 * deadline/retry/checkpoint/cancellation contract as every other
 * result kind.
 *
 * @throws std::invalid_argument for a malformed cell (null trace),
 *         naming the offending cell index.
 * @throws std::runtime_error when options.resume is set and the
 *         checkpoint cannot be read or belongs to a different grid.
 */
SweepReport<ElasticResult> runElasticSweepReport(
    const std::vector<ElasticCell>& cells, std::size_t jobs = 0,
    const SweepOptions& options = {});

}  // namespace faascache

#endif  // FAASCACHE_PROVISIONING_ELASTIC_SWEEP_H_
