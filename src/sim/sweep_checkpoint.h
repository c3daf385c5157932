/**
 * @file
 * SimResult payload codec of the checkpoint journal (checkpoint/resume
 * for trace-driven sweeps).
 *
 * The journal mechanics — header/fingerprint validation, checksummed
 * records, torn-tail truncation, record-at-a-time flushing — live in
 * util/checkpoint_journal.h, and the open/restore/append wiring in
 * util/sweep_journal.h; both are shared with every result kind. This
 * file contributes the SimResult payload codec:
 * a full-fidelity text encoding of the cell's stable key plus its
 * SimResult, integers in decimal and doubles in C hexfloat (`%a`), so
 * a restored result is field-for-field — bit-for-bit for doubles —
 * equal to the simulated one. That exactness is what makes a
 * `--resume` run byte-identical to an uninterrupted one.
 *
 * On load, a checksum-valid record whose payload fails to decode as a
 * SimResult ends the valid prefix exactly like a torn record would:
 * the journal is truncated there on resume and the cells re-run.
 */
#ifndef FAASCACHE_SIM_SWEEP_CHECKPOINT_H_
#define FAASCACHE_SIM_SWEEP_CHECKPOINT_H_

#include <string>

#include "sim/sim_result.h"
#include "util/checkpoint_journal.h"

namespace faascache {

/**
 * @name Record codec
 * The payload is `<key> <policy> <fields...>` with keys/names
 * percent-escaped and doubles in hexfloat; see the file comment.
 * @{
 */
std::string encodeCheckpointPayload(const std::string& key,
                                    const SimResult& result);

/** @return false when the payload is malformed. */
bool decodeCheckpointPayload(const std::string& payload, std::string* key,
                             SimResult* result);
/** @} */

}  // namespace faascache

#endif  // FAASCACHE_SIM_SWEEP_CHECKPOINT_H_
