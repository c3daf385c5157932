/**
 * @file
 * Streaming load-balancer helpers of the sharded cluster engine
 * (cluster_shard.cc).
 *
 * The balancer's primary assignment is a pure function of the arrival
 * stream: RoundRobin and FunctionHash depend only on (index, function),
 * and Random is a sequential draw stream seeded by the cluster seed.
 * Every consumer that replays the stream in order therefore assigns
 * identical primaries — the invariant both engine paths are built on:
 * every shard of a windowed run, and every per-server filter pass of
 * the fault-free split, replays the same draws. Internal to
 * src/platform.
 */
#ifndef FAASCACHE_PLATFORM_BALANCER_STREAM_H_
#define FAASCACHE_PLATFORM_BALANCER_STREAM_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/invocation_source.h"
#include "util/rng.h"

namespace faascache {

/**
 * Validate the next arrival of a cluster stream: arrivals must be
 * globally non-decreasing and name a function of the catalog. `last`
 * is the previous arrival time (0 before the first) and is advanced.
 * @throws std::runtime_error on either violation.
 */
inline void
checkClusterArrival(const Invocation& inv, TimeUs& last,
                    std::size_t catalog_size)
{
    if (inv.arrival_us < last) {
        throw std::runtime_error(
            "runCluster: source arrivals out of order (" +
            std::to_string(inv.arrival_us) + " after " +
            std::to_string(last) + ")");
    }
    if (inv.function >= catalog_size) {
        throw std::runtime_error(
            "runCluster: source function id " +
            std::to_string(inv.function) + " out of range (catalog " +
            std::to_string(catalog_size) + ")");
    }
    last = inv.arrival_us;
}

/**
 * The balancer's primary for each arrival, computed in stream order.
 * RoundRobin and FunctionHash primaries are pure functions of (index,
 * function); Random primaries are sequential RNG draws, so the tracker
 * must see every arrival once, in order. FunctionHash primaries are
 * hashed once per catalog function up front, so an arrival costs one
 * table load. The engine never recalls a primary later: it travels
 * with each cross-shard message instead.
 */
class PrimaryTracker
{
  public:
    /** @param catalog_size Functions of the stream's catalog; every
     *         arrival passed to onArrival() names one of them. */
    PrimaryTracker(const ClusterConfig& config, std::size_t catalog_size)
        : config_(&config), rng_(config.seed)
    {
        if (config.balancing != LoadBalancing::FunctionHash)
            return;
        primary_of_.resize(catalog_size);
        for (std::size_t f = 0; f < catalog_size; ++f) {
            primary_of_[f] = static_cast<std::uint32_t>(
                Rng::hashMix(static_cast<FunctionId>(f) ^ config.seed) %
                config.num_servers);
        }
    }

    /** Primary of the next arrival; call once per arrival, in order.
     *  @pre inv.function < the catalog size given at construction. */
    std::size_t onArrival(std::size_t index, const Invocation& inv)
    {
        switch (config_->balancing) {
          case LoadBalancing::Random:
            return static_cast<std::size_t>(
                rng_.uniformInt(config_->num_servers));
          case LoadBalancing::RoundRobin:
            return index % config_->num_servers;
          case LoadBalancing::FunctionHash:
            break;
        }
        return primary_of_[inv.function];
    }

    /** Restart from the first arrival of the stream. */
    void rewind() { rng_ = Rng(config_->seed); }

  private:
    const ClusterConfig* config_;
    Rng rng_;
    /** FunctionHash only: the primary of each catalog function. */
    std::vector<std::uint32_t> primary_of_;
};

/**
 * The sub-stream server `server` would receive from the balancer: a
 * filter view over the shared source that consumes one balancer draw
 * per inner invocation (in stream order, so every pass replays the
 * identical draw sequence) and emits only the invocations routed to
 * this server — function ids pass through untouched, every server
 * keeps the full catalog. Non-owning; reset() rewinds the shared
 * source. Every inner arrival is validated with checkClusterArrival(),
 * so a globally unsorted stream fails here exactly as it does in the
 * windowed engine, even when each server's share happens to be sorted.
 *
 * The count hint is an inexact estimate, roughly 1/n of the inner
 * stream (hints are allocation-only by the InvocationSource contract).
 */
class BalancerFilterSource final : public InvocationSource
{
  public:
    BalancerFilterSource(InvocationSource& inner,
                         const ClusterConfig& config, std::size_t server)
        : inner_(&inner), config_(&config), server_(server),
          name_(inner.name() + "-server" + std::to_string(server)),
          tracker_(config, inner.functions().size())
    {
    }

    const std::string& name() const override { return name_; }

    const std::vector<FunctionSpec>& functions() const override
    {
        return inner_->functions();
    }

    bool peek(Invocation& out) override
    {
        if (!settle())
            return false;
        out = pending_;
        return true;
    }

    bool next(Invocation& out) override
    {
        if (!settle())
            return false;
        out = pending_;
        has_pending_ = false;
        return true;
    }

    void reset() override
    {
        inner_->reset();
        tracker_.rewind();
        index_ = 0;
        last_arrival_ = 0;
        has_pending_ = false;
    }

    SourceCountHint countHint() const override
    {
        return SourceCountHint{
            inner_->countHint().count / config_->num_servers + 16, false};
    }

  private:
    /** Consume inner arrivals (and their draws) until one is ours. */
    bool settle()
    {
        while (!has_pending_) {
            Invocation inv;
            if (!inner_->next(inv))
                return false;
            checkClusterArrival(inv, last_arrival_,
                                inner_->functions().size());
            if (tracker_.onArrival(index_++, inv) == server_) {
                pending_ = inv;
                has_pending_ = true;
            }
        }
        return true;
    }

    InvocationSource* inner_;
    const ClusterConfig* config_;
    std::size_t server_;
    std::string name_;
    PrimaryTracker tracker_;
    std::size_t index_ = 0;
    TimeUs last_arrival_ = 0;
    Invocation pending_;
    bool has_pending_ = false;
};

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_BALANCER_STREAM_H_
