/**
 * @file
 * Streaming load-balancer helpers of the sharded cluster engine
 * (cluster_shard.cc).
 *
 * The balancer's primary assignment is a pure function of the arrival
 * stream: RoundRobin and FunctionHash depend only on (index, function),
 * and Random is a sequential draw stream seeded by the cluster seed.
 * Every consumer that replays the stream in order therefore assigns
 * identical primaries — the invariant the engine is built on: every
 * shard replays the same draws. Internal to src/platform.
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
 * globally non-decreasing, no later than kMaxArrivalUs, and name a
 * function of the catalog. `last` is the previous arrival time (0
 * before the first) and is advanced.
 * @throws std::runtime_error on any violation.
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
    checkArrivalTime(inv, "runCluster");
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

  private:
    const ClusterConfig* config_;
    Rng rng_;
    /** FunctionHash only: the primary of each catalog function. */
    std::vector<std::uint32_t> primary_of_;
};

}  // namespace faascache

#endif  // FAASCACHE_PLATFORM_BALANCER_STREAM_H_
