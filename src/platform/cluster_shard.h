/**
 * @file
 * Sharded cluster simulation (DESIGN.md §4i): the invoker fleet is
 * partitioned into contiguous server ranges, one worker thread + one
 * EventCore + one arrival cursor per shard, synchronized by a
 * conservative time-windowed barrier protocol.
 *
 * The lookahead horizon H is the minimum cross-shard latency,
 * FailoverConfig::base_backoff_us: every cross-shard effect is either
 * a retry (which fires at now + backoff, and backoff >= H) or a
 * forwarded offer (which the protocol quantizes to the next window
 * boundary), so no message produced inside a window [T, T + H) can
 * require delivery before T + H — shards may simulate a whole window
 * without hearing from each other. A run with no front-end machinery
 * armed (no faults, no shed mark, no retry budget, no breakers) has no
 * cross-shard effect at all, so its one window spans the whole run and
 * each shard replays the stream in a single round.
 *
 * One round per window, one barrier per round. Each shard settles its
 * servers to the window instant, freezes their snapshots and publishes
 * its snapshot epoch (the round number, release-stored); delivers the
 * mail routed to it at the previous barrier; simulates the window; then
 * arrives at the barrier, whose leader routes the window's mail and
 * picks the next window. A dispatch that reads another shard's snapshot
 * first acquire-waits on that shard's epoch; a snapshot is next
 * rewritten only after the following barrier, which every reader of
 * the round has passed.
 *
 * Determinism discipline: every decision is a function of (the event's
 * own server's live state, per-server snapshots frozen at the window
 * instant, mail delivered at the window instant in a canonically
 * sorted order). Nothing depends on which shard hosts a server, so
 * results are byte-identical for every shard count N >= 1. The shard
 * count is an execution grouping, not a semantic parameter.
 *
 * Every run ends every server at one fleet horizon: the last event of
 * the fleet plus the queue timeout.
 *
 * This header exposes the partition/mailbox/barrier building blocks
 * for tests; the entry point is runCluster(const ShardedWorkload&)
 * declared in cluster.h.
 */
#ifndef FAASCACHE_PLATFORM_CLUSTER_SHARD_H_
#define FAASCACHE_PLATFORM_CLUSTER_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "platform/cluster.h"
#include "trace/trace.h"
#include "util/types.h"

namespace faascache {

/**
 * Shards actually used for a fleet of `num_servers`: at most one per
 * server (an empty shard would have nothing to own). @pre shards >= 1.
 */
std::size_t effectiveShards(std::size_t shards, std::size_t num_servers);

/**
 * Contiguous balanced partition: shard `shard` owns servers
 * [first, first + count). The first `num_servers % num_shards` shards
 * own one extra server. @pre shard < num_shards <= num_servers.
 */
std::pair<std::size_t, std::size_t> shardServerRange(
    std::size_t shard, std::size_t num_shards, std::size_t num_servers);

/** Owning shard of `server` under the same partition. */
std::size_t shardOfServer(std::size_t server, std::size_t num_shards,
                          std::size_t num_servers);

/**
 * The synchronization window H in microseconds (the conservative
 * lookahead horizon; see the file comment): base_backoff_us, or the
 * largest TimeUs — one window for the whole run — when no front-end
 * machinery is armed.
 */
TimeUs shardWindowUs(const ClusterConfig& config);

/** One message crossing shards at a window boundary. */
struct ShardMail
{
    enum class Kind : std::uint8_t
    {
        /** A dispatch chose a server on another shard: the offer is
         *  delivered at the next barrier time (window-quantized
         *  forwarding latency). */
        ForwardOffer,

        /** A scheduled retry of a request whose primary lives on the
         *  destination shard; fires at its exact at_us (>= the next
         *  barrier by the backoff >= H argument). */
        RetryFire,
    };

    Kind kind = Kind::ForwardOffer;
    std::size_t index = 0;    ///< global stream index of the request
    Invocation inv;           ///< the request itself (catalog-global id)
    int attempt = 0;          ///< attempt the delivery/dispatch runs under
    std::size_t target = 0;   ///< destination server (routes the mail)
    std::size_t primary = 0;  ///< balancer primary of the request
    TimeUs at_us = 0;         ///< RetryFire only: dispatch time
};

/**
 * Per-window exchange queues. During a window each shard appends to
 * its own outbox (no locking — one writer per slot). At the barrier
 * the leader routes every posted message to the destination server's
 * owning shard and sorts each inbox into a canonical order (kind,
 * then RetryFire time, then index, attempt, target) — deterministic
 * regardless of which shard posted what, and regardless of how posts
 * from different servers interleaved inside the window. Windows never
 * mix: exchange() consumes exactly the messages posted since the
 * previous exchange (FIFO across windows by construction).
 */
class ShardMailbox
{
  public:
    explicit ShardMailbox(std::size_t num_shards)
        : outboxes_(num_shards), inboxes_(num_shards)
    {
    }

    /** The posting queue of `shard`; touched only by its own thread. */
    std::vector<ShardMail>& outbox(std::size_t shard)
    {
        return outboxes_[shard];
    }

    /** Any message posted since the last exchange? (leader-only). */
    bool anyPosted() const;

    /** Route + sort all posted messages into inboxes (leader-only). */
    void exchange(
        const std::function<std::size_t(std::size_t server)>& owner);

    /** Messages delivered to `shard` by the last exchange(). */
    const std::vector<ShardMail>& inbox(std::size_t shard) const
    {
        return inboxes_[shard];
    }

  private:
    std::vector<std::vector<ShardMail>> outboxes_;
    std::vector<std::vector<ShardMail>> inboxes_;
};

/** Thrown to waiters when a ShardBarrier is aborted (a peer failed). */
class ShardAborted : public std::runtime_error
{
  public:
    ShardAborted() : std::runtime_error("shard barrier aborted") {}
};

/**
 * Reusable barrier with a leader section: the last thread to arrive
 * runs `leader` (mail exchange, window advance) while the others wait,
 * then all release together. Waiters first poll the generation for a
 * bounded number of CPU pauses — a window's work is often shorter than
 * a futex sleep and wake-up — and only then block on the condvar.
 * abort() wakes every waiter with ShardAborted so one shard's failure
 * cannot deadlock the rest.
 */
class ShardBarrier
{
  public:
    explicit ShardBarrier(std::size_t parties) : parties_(parties) {}

    /** @throws ShardAborted when the barrier was aborted; rethrows the
     *  leader's exception on the arriving thread that ran it. */
    void arriveAndWait(const std::function<void()>& leader = {});

    void abort();

    /** Has abort() run or a leader thrown? Callable from any thread. */
    bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  private:
    /** Publish `generation` and wake every sleeping waiter. */
    void release(std::uint64_t generation);

    std::mutex mutex_;
    std::condition_variable cv_;
    const std::size_t parties_;
    std::atomic<std::size_t> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<bool> aborted_{false};
};

/**
 * The windowed engine every cluster run goes through, in windows of
 * shardWindowUs(config). Byte-identical across every shard count; see
 * the file comment for the protocol.
 */
ClusterResult runClusterShardedWindowed(const SourceFactory& make_source,
                                        PolicyKind kind,
                                        const ClusterConfig& config,
                                        const PolicyConfig& policy_config);

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_CLUSTER_SHARD_H_
