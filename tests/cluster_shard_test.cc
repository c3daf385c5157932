// Sharded cluster engine (DESIGN.md §4i): partition determinism, the
// cross-shard mailbox's canonical delivery order, barrier mechanics,
// and — the load-bearing property — byte-identical results for every
// shard count, clean and under fault plans + overload defenses, with
// the runtime invariant auditor attached and silent.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy_factory.h"
#include "engine/event_engine.h"
#include "platform/cluster.h"
#include "platform/cluster_shard.h"
#include "platform/experiment_checkpoint.h"
#include "platform/fault_injection.h"
#include "platform/overload/circuit_breaker.h"
#include "platform/server.h"
#include "trace/azure_model.h"
#include "trace/function_spec.h"
#include "trace/invocation_source.h"
#include "trace/trace.h"
#include "util/audit.h"
#include "util/checkpoint_journal.h"
#include "util/rng.h"

#include "cluster_split_oracle.h"

namespace faascache {
namespace {

/** fnv1a64 of the stormConfig() payload (see
 *  BreakerStormWithPartitionCrashAndOomIsExact). */
constexpr std::uint64_t kStormPayloadDigest = 0x5133526cc949838fULL;

AzureModelConfig
workloadConfig()
{
    AzureModelConfig config;
    config.seed = 47;
    config.num_functions = 60;
    config.duration_us = 25 * kMinute;
    config.iat_median_sec = 20.0;
    return config;
}

const Trace&
azureWorkload()
{
    static const Trace kTrace = generateAzureTrace(workloadConfig());
    return kTrace;
}

FaultPlan
clusterFaults()
{
    FaultPlan plan;
    plan.spawn_failure_prob = 0.1;
    plan.spawn_retry_delay_us = 150 * kMillisecond;
    plan.straggler_prob = 0.15;
    plan.straggler_multiplier = 2.5;
    plan.crashes.push_back(CrashEvent{0, 5 * kMinute, 2 * kMinute});
    plan.crashes.push_back(CrashEvent{2, 12 * kMinute, 90 * kSecond});
    plan.oom_kills.push_back(OomKillEvent{1, 8 * kMinute});
    return plan;
}

ClusterConfig
baseConfig(std::size_t num_servers)
{
    ClusterConfig config;
    config.num_servers = num_servers;
    config.seed = 77;
    config.server.cores = 2;
    config.server.memory_mb = 1'500.0;
    return config;
}

void
armDefenses(ClusterConfig& config)
{
    config.faults = clusterFaults();
    config.failover.shed_queue_depth = 24;
    config.failover.retry_budget.ratio = 0.5;
    config.failover.retry_budget.burst = 16.0;
    config.failover.breaker.failure_threshold = 8;
    config.failover.breaker.open_duration_us = 10 * kSecond;
}

std::string
payloadFor(const ClusterConfig& config)
{
    return encodeClusterCheckpointPayload(
        "cell", runCluster(azureWorkload(), PolicyKind::GreedyDual,
                           config));
}

// --- Partition helpers. ---------------------------------------------

TEST(ClusterShard, PartitionIsContiguousBalancedAndInvertible)
{
    for (const std::size_t servers : {1u, 3u, 7u, 8u, 64u, 301u}) {
        for (const std::size_t shards : {1u, 2u, 4u, 8u, 64u, 999u}) {
            const std::size_t effective =
                effectiveShards(shards, servers);
            ASSERT_GE(effective, 1u);
            ASSERT_LE(effective, servers);

            std::size_t covered = 0;
            std::size_t max_count = 0;
            std::size_t min_count = servers;
            for (std::size_t shard = 0; shard < effective; ++shard) {
                const auto [first, count] =
                    shardServerRange(shard, effective, servers);
                ASSERT_EQ(first, covered)
                    << "ranges must be contiguous in shard order";
                ASSERT_GE(count, 1u);
                max_count = std::max(max_count, count);
                min_count = std::min(min_count, count);
                for (std::size_t s = first; s < first + count; ++s) {
                    ASSERT_EQ(shardOfServer(s, effective, servers),
                              shard)
                        << "shardOfServer must invert the ranges";
                }
                covered += count;
            }
            ASSERT_EQ(covered, servers) << "every server owned once";
            ASSERT_LE(max_count - min_count, 1u)
                << "partition must be balanced";
        }
    }
}

// --- Mailbox: canonical, poster-independent delivery order. ---------

TEST(ClusterShard, MailboxSortsDeliveriesCanonicallyPerWindow)
{
    auto owner = [](std::size_t server) { return server % 2; };
    auto mail = [](ShardMail::Kind kind, std::size_t index, int attempt,
                   std::size_t target, TimeUs at) {
        ShardMail m;
        m.kind = kind;
        m.index = index;
        m.attempt = attempt;
        m.target = target;
        m.at_us = at;
        return m;
    };

    // The same messages posted from different shards in different
    // interleavings must be delivered identically.
    std::vector<std::vector<ShardMail>> inboxes[2];
    for (int variant = 0; variant < 2; ++variant) {
        ShardMailbox box(2);
        std::vector<ShardMail> batch = {
            mail(ShardMail::Kind::RetryFire, 9, 2, 2, 500),
            mail(ShardMail::Kind::ForwardOffer, 14, 1, 4, 0),
            mail(ShardMail::Kind::RetryFire, 3, 1, 2, 500),
            mail(ShardMail::Kind::ForwardOffer, 2, 0, 2, 0),
            mail(ShardMail::Kind::RetryFire, 7, 1, 6, 120),
        };
        if (variant == 1) {
            std::reverse(batch.begin(), batch.end());
            for (ShardMail& m : batch)
                box.outbox(1).push_back(m);
        } else {
            // Split across posters instead.
            box.outbox(0).push_back(batch[0]);
            box.outbox(1).push_back(batch[1]);
            box.outbox(0).push_back(batch[2]);
            box.outbox(1).push_back(batch[3]);
            box.outbox(0).push_back(batch[4]);
        }
        ASSERT_TRUE(box.anyPosted());
        box.exchange(owner);
        ASSERT_FALSE(box.anyPosted()) << "exchange consumes the window";
        inboxes[variant].push_back(box.inbox(0));
        inboxes[variant].push_back(box.inbox(1));
    }
    for (int shard = 0; shard < 2; ++shard) {
        const auto& a = inboxes[0][shard];
        const auto& b = inboxes[1][shard];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].index, b[i].index) << "shard " << shard;
            EXPECT_EQ(a[i].at_us, b[i].at_us) << "shard " << shard;
        }
    }

    // Canonical order inside one inbox: offers first by (index,
    // attempt), then retries by fire time.
    const auto& even = inboxes[0][0];
    ASSERT_EQ(even.size(), 5u);  // every target above is even
    EXPECT_EQ(even[0].kind, ShardMail::Kind::ForwardOffer);
    EXPECT_EQ(even[0].index, 2u);
    EXPECT_EQ(even[1].kind, ShardMail::Kind::ForwardOffer);
    EXPECT_EQ(even[1].index, 14u);
    EXPECT_EQ(even[2].kind, ShardMail::Kind::RetryFire);
    EXPECT_EQ(even[2].index, 7u);  // at_us 120 before the two at 500
    EXPECT_EQ(even[3].index, 3u);  // index breaks the at_us tie (3 < 9)
    EXPECT_EQ(even[4].index, 9u);

    // Windows never mix: a second exchange only carries new posts.
    ShardMailbox box(2);
    box.outbox(0).push_back(
        mail(ShardMail::Kind::ForwardOffer, 1, 0, 0, 0));
    box.exchange(owner);
    ASSERT_EQ(box.inbox(0).size(), 1u);
    box.outbox(1).push_back(
        mail(ShardMail::Kind::ForwardOffer, 8, 0, 0, 0));
    box.exchange(owner);
    ASSERT_EQ(box.inbox(0).size(), 1u);
    EXPECT_EQ(box.inbox(0)[0].index, 8u);
}

// --- Barrier: leader section and abort wake-up. ---------------------

TEST(ClusterShard, BarrierRunsLeaderOncePerRoundAndAbortWakes)
{
    constexpr std::size_t kParties = 4;
    constexpr int kRounds = 25;
    ShardBarrier barrier(kParties);
    std::vector<int> leader_runs(1, 0);
    std::vector<std::thread> threads;
    threads.reserve(kParties);
    for (std::size_t p = 0; p < kParties; ++p) {
        threads.emplace_back([&] {
            for (int r = 0; r < kRounds; ++r)
                barrier.arriveAndWait([&] { ++leader_runs[0]; });
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(leader_runs[0], kRounds)
        << "exactly one leader execution per round";

    ShardBarrier aborting(2);
    std::thread waiter([&] {
        EXPECT_THROW(aborting.arriveAndWait(), ShardAborted);
    });
    aborting.abort();
    waiter.join();
    EXPECT_THROW(aborting.arriveAndWait(), ShardAborted)
        << "an aborted barrier stays aborted";
}

// --- Engine/breaker helpers the windowed loop leans on. -------------

TEST(ClusterShard, EventCoreHasEventBeforeHorizon)
{
    EventCore<int> events;
    EXPECT_FALSE(events.hasEventBefore(1'000'000));
    events.schedule(500, 0, 0);
    EXPECT_TRUE(events.hasEventBefore(501));
    EXPECT_FALSE(events.hasEventBefore(500))
        << "strictly-before: an event AT the horizon belongs to the "
           "next window";
}

TEST(ClusterShard, BreakerPeekAllowNeverClaimsProbe)
{
    CircuitBreakerConfig config;
    config.failure_threshold = 2;
    config.open_duration_us = 1'000;
    CircuitBreaker breaker(config);
    breaker.recordFailure(0);
    breaker.recordFailure(0);  // opens
    EXPECT_EQ(breaker.state(10), BreakerState::Open);
    EXPECT_FALSE(breaker.peekAllow(10));
    // Half-open: peeking any number of times must not consume the
    // probe slot the next allowRequest claims.
    EXPECT_TRUE(breaker.peekAllow(1'000));
    EXPECT_TRUE(breaker.peekAllow(1'000));
    EXPECT_EQ(breaker.probes(), 0);
    EXPECT_TRUE(breaker.allowRequest(1'000));
    EXPECT_EQ(breaker.probes(), 1);
    EXPECT_FALSE(breaker.peekAllow(1'001))
        << "after the claim, the slot is gone for a cool-down";
}

// --- Shard-count invariance (the headline property). ----------------

TEST(ClusterShard, CleanShardedMatchesLegacyForAllBalancers)
{
    // The oracle is the classic independent-server replay: route the
    // trace by balancer to one Server per share, each ended at the
    // fleet horizon.
    for (const LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        ClusterConfig config = baseConfig(4);
        config.balancing = balancing;
        const std::string oracle = encodeClusterCheckpointPayload(
            "cell", runClusterSplitOracle(azureWorkload(),
                                          PolicyKind::GreedyDual, config));
        for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
            ClusterConfig sharded = config;
            sharded.shards = shards;
            EXPECT_EQ(payloadFor(sharded), oracle)
                << "clean sharded run diverged from the split oracle: "
                   "balancing "
                << static_cast<int>(balancing) << ", shards " << shards;
        }
    }
}

TEST(ClusterShard, WholeRunWindowExactlyWhenNothingCrossesShards)
{
    // With no front-end machinery armed nothing crosses shards, so one
    // window spans the run; any armed knob restores H = base_backoff_us.
    const ClusterConfig clean = baseConfig(4);
    EXPECT_EQ(shardWindowUs(clean), std::numeric_limits<TimeUs>::max());

    std::vector<ClusterConfig> armed(5, clean);
    armed[0].faults.spawn_failure_prob = 0.1;
    armed[1].faults.crashes.push_back(CrashEvent{0, kMinute, kSecond});
    armed[2].failover.shed_queue_depth = clean.server.queue_capacity;
    armed[3].failover.retry_budget.ratio = 0.5;
    armed[4].failover.breaker.failure_threshold = 3;
    for (const ClusterConfig& config : armed)
        EXPECT_EQ(shardWindowUs(config), config.failover.base_backoff_us);
}

/**
 * Two FunctionHash servers, one of which goes idle long before the
 * fleet's last arrival: function 0 fires once a second for the first
 * 10 s, and `late` (the first id hashed to the other server) every
 * 30 s for three hours.
 */
Trace
earlyIdleTrace(FunctionId late)
{
    Trace trace("early-idle");
    for (FunctionId f = 0; f <= late; ++f) {
        trace.addFunction(makeFunction(f, "f" + std::to_string(f), 100.0,
                                       100 * kMillisecond,
                                       400 * kMillisecond));
    }
    for (TimeUs t = 0; t <= 3 * kHour; t += kSecond) {
        if (t < 10 * kSecond)
            trace.addInvocation(0, t);
        if (t % (30 * kSecond) == 0)
            trace.addInvocation(late, t);
    }
    return trace;
}

TEST(ClusterShard, EveryServerEndsAtTheFleetHorizon)
{
    // Every server of a run ends at the fleet horizon — the stream's
    // last arrival plus the queue timeout — including one idle since
    // the first 10 s. Its container outlives the keep-alive window
    // (TTL's 10 minutes, HIST's generic 2 hours) there and expires late
    // in the run; ending that server at its own last arrival plus the
    // queue timeout would record no expiration.
    ClusterConfig config = baseConfig(2);
    config.balancing = LoadBalancing::FunctionHash;
    const auto server_of = [&config](FunctionId f) {
        return static_cast<std::size_t>(
            Rng::hashMix(f ^ config.seed) % config.num_servers);
    };
    FunctionId late = 1;
    while (server_of(late) == server_of(0))
        ++late;
    const Trace trace = earlyIdleTrace(late);
    const std::size_t idle_server = server_of(0);

    for (const PolicyKind kind : {PolicyKind::Ttl, PolicyKind::Hist}) {
        SCOPED_TRACE(policyKindName(kind));
        const std::string oracle = encodeClusterCheckpointPayload(
            "cell", runClusterSplitOracle(trace, kind, config));
        for (const std::size_t shards : {1u, 2u, 4u}) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            ClusterConfig sharded = config;
            sharded.shards = shards;
            const ClusterResult result = runCluster(trace, kind, sharded);
            EXPECT_EQ(encodeClusterCheckpointPayload("cell", result),
                      oracle);
            EXPECT_EQ(result.servers[idle_server].expirations, 1);
        }
    }

    // The auditor's fleet-conservation and shard-stream-agreement
    // checks cover the whole-run window too, and leave the payload
    // alone.
    Auditor audit(AuditMode::On);
    ClusterConfig audited = config;
    audited.shards = 2;
    audited.server.audit = &audit;
    EXPECT_EQ(encodeClusterCheckpointPayload(
                  "cell", runCluster(trace, PolicyKind::Ttl, audited)),
              encodeClusterCheckpointPayload(
                  "cell", runClusterSplitOracle(trace, PolicyKind::Ttl,
                                                config)));
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

TEST(ClusterShard, WindowedRunIsShardCountInvariantWithAuditorOn)
{
    for (const LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        Auditor audit(AuditMode::On);
        ClusterConfig config = baseConfig(4);
        config.balancing = balancing;
        armDefenses(config);
        config.server.audit = &audit;

        config.shards = 1;
        const std::string oracle = payloadFor(config);
        for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
            ClusterConfig other = config;
            other.shards = shards;
            EXPECT_EQ(payloadFor(other), oracle)
                << "windowed run diverged: balancing "
                << static_cast<int>(balancing) << ", shards " << shards;
        }
        EXPECT_EQ(audit.violationCount(), 0)
            << "auditor-on sharded runs must be violation-free: "
            << audit.report();
    }
}

// --- Horizon-boundary events land exactly on a barrier. -------------

TEST(ClusterShard, HorizonBoundaryRetriesFireOnBarrierInstant)
{
    // Jitter off: every retry backs off by exactly base_backoff_us
    // << attempt — attempt-0 retries of requests spilled at a crash
    // (which fires at a multiple of H below) land exactly on the next
    // barrier instant. The run must stay shard-count invariant and
    // actually exercise retries.
    ClusterConfig config = baseConfig(3);
    config.failover.backoff_jitter_frac = 0.0;
    config.failover.base_backoff_us = 30 * kSecond;  // H
    config.faults.crashes.push_back(
        CrashEvent{0, 5 * kMinute, 2 * kMinute});  // 10 H, restart 4 H
    config.balancing = LoadBalancing::FunctionHash;

    config.shards = 1;
    const std::string oracle = payloadFor(config);
    ClusterResult witness;
    for (const std::size_t shards : {2u, 3u, 8u}) {
        ClusterConfig other = config;
        other.shards = shards;
        EXPECT_EQ(payloadFor(other), oracle)
            << "boundary-aligned retries diverged at shards " << shards;
        witness = runCluster(azureWorkload(), PolicyKind::GreedyDual,
                             other);
    }
    EXPECT_GT(witness.retries, 0)
        << "the scenario must actually schedule barrier-aligned "
           "retries";
}

// --- Empty shards still participate in barriers. --------------------

TEST(ClusterShard, EmptyShardsParticipateAndStayInvariant)
{
    // Two functions hashed across 8 servers: most servers (and with 8
    // shards, most shards) never receive an arrival, yet their shards
    // must keep arriving at every barrier for the run to terminate.
    Trace trace("empty-shards");
    for (FunctionId f = 0; f < 2; ++f) {
        trace.addFunction(makeFunction(f, "f" + std::to_string(f),
                                       300.0, 500 * kMillisecond,
                                       2 * kSecond));
    }
    for (int i = 0; i < 40; ++i)
        trace.addInvocation(i % 2, (i + 1) * 10 * kSecond);

    ClusterConfig config = baseConfig(8);
    config.balancing = LoadBalancing::FunctionHash;
    armDefenses(config);

    Auditor audit(AuditMode::On);
    config.server.audit = &audit;
    config.shards = 1;
    const std::string oracle = encodeClusterCheckpointPayload(
        "cell", runCluster(trace, PolicyKind::GreedyDual, config));
    for (const std::size_t shards : {2u, 4u, 8u}) {
        ClusterConfig other = config;
        other.shards = shards;
        EXPECT_EQ(encodeClusterCheckpointPayload(
                      "cell", runCluster(trace, PolicyKind::GreedyDual,
                                         other)),
                  oracle)
            << "empty-shard run diverged at shards " << shards;
    }
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

// --- Failover reads snapshots published by other shards. -----------

TEST(ClusterShard, CrossShardFailoverIsShardCountInvariant)
{
    // FunctionHash pins each function to one primary; crashes take
    // primaries down and a shallow shed depth refuses busy ones, so
    // dispatches fail over to the next servers and judge them by their
    // window snapshots. At 8 shards every server is its own shard, so
    // every failover probe reads a snapshot another shard published —
    // the epoch handoff, exercised under tsan in CI.
    ClusterConfig config = baseConfig(8);
    config.balancing = LoadBalancing::FunctionHash;
    config.server.cores = 1;
    config.failover.shed_queue_depth = 2;
    for (std::size_t s = 0; s < 8; s += 2) {
        config.faults.crashes.push_back(CrashEvent{
            s, static_cast<TimeUs>(3 + s) * kMinute, 3 * kMinute});
    }
    config.faults.crashes.push_back(
        CrashEvent{1, 15 * kMinute, 4 * kMinute});
    Auditor audit(AuditMode::On);
    config.server.audit = &audit;

    config.shards = 1;
    const ClusterResult single =
        runCluster(azureWorkload(), PolicyKind::GreedyDual, config);
    EXPECT_GT(single.failovers, 0)
        << "the scenario must fail over to non-primary servers";
    const std::string oracle =
        encodeClusterCheckpointPayload("cell", single);
    for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
        ClusterConfig other = config;
        other.shards = shards;
        EXPECT_EQ(payloadFor(other), oracle)
            << "cross-shard failover diverged at shards " << shards;
    }
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

// --- Phase A settles exactly the servers that can have changed. ----

/** A fleet mostly at rest between bursts of trouble: a spawn-failure
 *  storm that opens breakers, a partition, a crash with its restart,
 *  and two OOM kills, with failover mail between servers. */
ClusterConfig
stormConfig()
{
    ClusterConfig config = baseConfig(8);
    config.balancing = LoadBalancing::FunctionHash;
    config.server.cores = 1;
    config.faults.spawn_failure_prob = 0.55;
    config.faults.spawn_retry_delay_us = 400 * kMillisecond;
    config.faults.partitions.push_back(
        PartitionWindow{3, 4 * kMinute, 9 * kMinute});
    config.faults.crashes.push_back(
        CrashEvent{5, 6 * kMinute, 2 * kMinute});
    config.faults.oom_kills.push_back(OomKillEvent{1, 10 * kMinute});
    config.faults.oom_kills.push_back(OomKillEvent{6, 14 * kMinute});
    config.failover.shed_queue_depth = 3;
    config.failover.retry_budget.ratio = 0.5;
    config.failover.retry_budget.burst = 16.0;
    config.failover.breaker.failure_threshold = 3;
    config.failover.breaker.open_duration_us = 20 * kSecond;
    return config;
}

TEST(ClusterShard, BreakerStormWithPartitionCrashAndOomIsExact)
{
    // Phase A skips a server until it is due: its next own event, any
    // settle (dispatch, delivered mail, crash, restart, OOM kill), or
    // every window while its breaker is not Closed. Breakers here open
    // and half-open many times, so both the "not Closed" and the
    // "mail marks the target due" branches run. The digest below is of
    // the payload of an engine that settles every server every window,
    // so a skipped settle that mattered would change it.
    ClusterConfig config = stormConfig();
    Auditor audit(AuditMode::On);
    config.server.audit = &audit;

    config.shards = 1;
    const ClusterResult single =
        runCluster(azureWorkload(), PolicyKind::GreedyDual, config);
    EXPECT_GT(single.breaker_opens, 2) << "the storm must open breakers";
    EXPECT_GT(single.breaker_probes, 0);
    EXPECT_GT(single.failovers, 0) << "failover mail must flow";
    EXPECT_GT(single.partition_unreachable, 0);
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    std::int64_t oom_kills = 0;
    for (const PlatformResult& server : single.servers) {
        crashes += server.robustness.crashes;
        restarts += server.robustness.restarts;
        oom_kills += server.robustness.oom_kills;
    }
    EXPECT_EQ(crashes, 1);
    EXPECT_EQ(restarts, 1);
    EXPECT_GT(oom_kills, 0);

    const std::string oracle =
        encodeClusterCheckpointPayload("cell", single);
    EXPECT_EQ(fnv1a64(oracle), kStormPayloadDigest);
    for (const std::size_t shards : {2u, 4u}) {
        ClusterConfig other = config;
        other.shards = shards;
        EXPECT_EQ(payloadFor(other), oracle)
            << "storm run diverged at shards " << shards;
    }
    EXPECT_EQ(audit.violationCount(), 0) << audit.report();
}

// --- One failing shard ends the run instead of hanging its peers. ---

/** A trace cursor that throws once `fail_after` invocations have been
 *  consumed, or from reset() when `fail_after` is negative. */
class FailingSource final : public InvocationSource
{
  public:
    FailingSource(const Trace& trace, long fail_after)
        : inner_(trace), fail_after_(fail_after)
    {
    }

    const std::string& name() const override { return inner_.name(); }
    const std::vector<FunctionSpec>& functions() const override
    {
        return inner_.functions();
    }
    bool peek(Invocation& out) override { return inner_.peek(out); }
    bool next(Invocation& out) override
    {
        if (consumed_ == fail_after_)
            throw std::runtime_error("injected cursor failure");
        ++consumed_;
        return inner_.next(out);
    }
    void reset() override
    {
        if (fail_after_ < 0)
            throw std::runtime_error("injected cursor failure");
        consumed_ = 0;
        inner_.reset();
    }
    SourceCountHint countHint() const override
    {
        return inner_.countHint();
    }

  private:
    TraceSource inner_;
    long fail_after_;
    long consumed_ = 0;
};

/** Run `config` over `trace` where the factory's second cursor (one
 *  shard's) fails after `fail_after` invocations; expect its error. */
void
expectCursorFailureRethrown(const Trace& trace, ClusterConfig config,
                            long fail_after)
{
    for (const std::size_t shards : {2u, 4u}) {
        config.shards = shards;
        std::atomic<int> calls{0};
        ShardedWorkload workload;
        workload.make_full = [&]() -> std::unique_ptr<InvocationSource> {
            if (calls.fetch_add(1) == 1)
                return std::make_unique<FailingSource>(trace, fail_after);
            return std::make_unique<TraceSource>(trace);
        };
        try {
            runCluster(workload, PolicyKind::GreedyDual, config);
            ADD_FAILURE() << "no error at shards " << shards
                          << ", fail_after " << fail_after;
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "injected cursor failure")
                << "shards " << shards << ", fail_after " << fail_after;
        }
        EXPECT_EQ(calls.load(), static_cast<int>(shards))
            << "one cursor per shard";
    }
}

TEST(ClusterShard, FailingShardRethrowsWithoutHangingPeers)
{
    // Only the shard that gets the factory's second cursor fails; its
    // peers wait in the barrier and must observe the abort, and
    // runCluster must rethrow the cursor's error. A hang fails the
    // test by its ctest timeout.
    ClusterConfig config = baseConfig(4);
    config.balancing = LoadBalancing::FunctionHash;
    armDefenses(config);
    const auto total =
        static_cast<long>(azureWorkload().invocations().size());
    for (const long fail_after : {0L, total / 3, total - 1})
        expectCursorFailureRethrown(azureWorkload(), config, fail_after);
}

TEST(ClusterShard, FailedOwnerReleasesSnapshotWaiters)
{
    // Every server crashes at t = 0 and arrivals start inside the
    // first window, so each dispatch probes every server and reads
    // every other shard's first snapshots. The failing shard throws
    // from reset(), before it publishes any: its peers must leave the
    // snapshot-epoch wait through the abort.
    Trace trace("all-down");
    trace.addFunction(makeFunction(0, "f0", 300.0, 500 * kMillisecond,
                                   2 * kSecond));
    for (int i = 1; i <= 50; ++i)
        trace.addInvocation(0, i * kMillisecond);
    ClusterConfig config = baseConfig(4);
    config.balancing = LoadBalancing::FunctionHash;
    for (std::size_t s = 0; s < 4; ++s)
        config.faults.crashes.push_back(CrashEvent{s, 0, kSecond});
    expectCursorFailureRethrown(trace, config, /*fail_after=*/-1);
}

// --- Malformed streams fail on every path, for every balancer. -----

TEST(ClusterShard, ArrivalPastTheLimitThrowsOnEveryPath)
{
    // An arrival at the TimeUs maximum equals the engine's "no event"
    // sentinel: no shard would ever consume it, so unchecked it would be
    // neither served nor dropped. Every balancer, shard count and window
    // regime must reject it by name instead.
    Trace late("late");
    late.addFunction(makeFunction(0, "f0", 300.0, 500 * kMillisecond,
                                  2 * kSecond));
    late.addInvocation(0, kSecond);
    late.addInvocation(0, std::numeric_limits<TimeUs>::max());
    const std::string expected =
        "runCluster: arrival at " +
        std::to_string(std::numeric_limits<TimeUs>::max()) +
        " us is past the latest accepted arrival time (" +
        std::to_string(kMaxArrivalUs) + " us)";
    ShardedWorkload workload;
    workload.make_full = [&late] {
        return std::make_unique<TraceSource>(late);
    };
    for (const LoadBalancing balancing :
         {LoadBalancing::Random, LoadBalancing::RoundRobin,
          LoadBalancing::FunctionHash}) {
        for (const std::size_t shards : {1u, 4u}) {
            for (const bool armed : {false, true}) {
                ClusterConfig config = baseConfig(2);
                config.balancing = balancing;
                config.shards = shards;
                if (armed) {
                    config.failover.shed_queue_depth =
                        config.server.queue_capacity;
                }
                const std::string label = "balancing " +
                    std::to_string(static_cast<int>(balancing)) +
                    " shards " + std::to_string(shards) +
                    (armed ? " armed" : " clean");
                try {
                    runCluster(workload, PolicyKind::GreedyDual, config);
                    ADD_FAILURE() << "no error: " << label;
                } catch (const std::runtime_error& error) {
                    EXPECT_EQ(error.what(), expected) << label;
                }
            }
        }
    }
}

TEST(ClusterShard, MalformedStreamThrowsOnEveryPath)
{
    // Round-robin over 2 servers splits arrivals 10, 20, 15, 25 s into
    // the sorted shares {10, 15} and {20, 25}: only a check on the
    // whole stream sees the disorder. Every balancer, shard count and
    // both window regimes (clean whole-run window, armed windows) must
    // reject it, and an out-of-range function id, with the same error
    // and without hanging a shard.
    Trace unsorted("unsorted");
    unsorted.addFunction(makeFunction(0, "f0", 300.0, 500 * kMillisecond,
                                      2 * kSecond));
    for (const int sec : {10, 20, 15, 25})
        unsorted.addInvocation(0, sec * kSecond);
    Trace bad_id("bad-id");
    bad_id.addFunction(makeFunction(0, "f0", 300.0, 500 * kMillisecond,
                                    2 * kSecond));
    bad_id.addInvocation(0, 10 * kSecond);
    bad_id.addInvocation(7, 20 * kSecond);

    const std::pair<const Trace*, std::string> cases[] = {
        {&unsorted,
         "runCluster: source arrivals out of order (15000000 after "
         "20000000)"},
        {&bad_id, "runCluster: source function id 7 out of range "
                  "(catalog 1)"},
    };
    for (const auto& [trace, expected] : cases) {
        ShardedWorkload workload;
        workload.make_full = [trace] {
            return std::make_unique<TraceSource>(*trace);
        };
        for (const LoadBalancing balancing :
             {LoadBalancing::Random, LoadBalancing::RoundRobin,
              LoadBalancing::FunctionHash}) {
            for (const std::size_t shards : {1u, 4u}) {
                for (const bool armed : {false, true}) {
                    ClusterConfig config = baseConfig(2);
                    config.balancing = balancing;
                    config.shards = shards;
                    if (armed) {
                        config.failover.shed_queue_depth =
                            config.server.queue_capacity;
                    }
                    const std::string label = trace->name() +
                        " balancing " +
                        std::to_string(static_cast<int>(balancing)) +
                        " shards " + std::to_string(shards) +
                        (armed ? " armed" : " clean");
                    try {
                        runCluster(workload, PolicyKind::GreedyDual,
                                   config);
                        ADD_FAILURE() << "no error: " << label;
                    } catch (const std::runtime_error& error) {
                        EXPECT_EQ(error.what(), expected) << label;
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace faascache
