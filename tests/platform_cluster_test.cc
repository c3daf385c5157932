#include "platform/cluster.h"

#include <gtest/gtest.h>

#include "platform/load_generator.h"

namespace faascache {
namespace {

ClusterConfig
config(LoadBalancing balancing, std::size_t servers = 4)
{
    ClusterConfig c;
    c.num_servers = servers;
    c.server.cores = 4;
    c.server.memory_mb = 512;
    c.balancing = balancing;
    return c;
}

TEST(Cluster, AllInvocationsAccountedFor)
{
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    for (LoadBalancing lb : {LoadBalancing::Random,
                             LoadBalancing::RoundRobin,
                             LoadBalancing::FunctionHash}) {
        const ClusterResult r =
            runCluster(t, PolicyKind::GreedyDual, config(lb));
        std::int64_t total = 0;
        for (const auto& s : r.servers)
            total += s.total();
        EXPECT_EQ(total,
                  static_cast<std::int64_t>(t.invocations().size()));
    }
}

TEST(Cluster, FunctionHashPinsFunctions)
{
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    const ClusterResult r = runCluster(
        t, PolicyKind::GreedyDual, config(LoadBalancing::FunctionHash));
    // Each function's invocations land on exactly one server.
    for (FunctionId fn = 0; fn < t.functions().size(); ++fn) {
        int servers_touched = 0;
        for (const auto& s : r.servers) {
            if (s.outcomeOf(fn).served() + s.outcomeOf(fn).dropped > 0) {
                ++servers_touched;
            }
        }
        EXPECT_LE(servers_touched, 1) << "function " << fn;
    }
}

TEST(Cluster, RoundRobinSpreadsEvenly)
{
    const Trace t = skewedFrequencyWorkload(10 * kMinute);
    const ClusterResult r = runCluster(
        t, PolicyKind::GreedyDual, config(LoadBalancing::RoundRobin));
    const auto expected = static_cast<double>(t.invocations().size()) /
        static_cast<double>(r.servers.size());
    for (const auto& s : r.servers)
        EXPECT_NEAR(static_cast<double>(s.total()), expected, 1.0);
}

TEST(Cluster, LocalityImprovesWarmRatio)
{
    // The §9 claim: function-affine balancing concentrates temporal
    // locality and beats random spreading for keep-alive.
    const Trace t = skewedFrequencyWorkload(30 * kMinute);
    const ClusterResult affine = runCluster(
        t, PolicyKind::GreedyDual, config(LoadBalancing::FunctionHash));
    const ClusterResult random = runCluster(
        t, PolicyKind::GreedyDual, config(LoadBalancing::Random));
    EXPECT_GT(affine.warmPercent(), random.warmPercent());
}

TEST(Cluster, Deterministic)
{
    const Trace t = skewedFrequencyWorkload(5 * kMinute);
    const ClusterResult a = runCluster(t, PolicyKind::GreedyDual,
                                       config(LoadBalancing::Random));
    const ClusterResult b = runCluster(t, PolicyKind::GreedyDual,
                                       config(LoadBalancing::Random));
    EXPECT_EQ(a.warmStarts(), b.warmStarts());
    EXPECT_EQ(a.coldStarts(), b.coldStarts());
}

TEST(Cluster, RejectsZeroServers)
{
    const Trace t = skewedFrequencyWorkload(kMinute);
    ClusterConfig c = config(LoadBalancing::Random);
    c.num_servers = 0;
    EXPECT_THROW(runCluster(t, PolicyKind::GreedyDual, c),
                 std::invalid_argument);
}

TEST(Cluster, AggregateHelpers)
{
    ClusterResult r;
    PlatformResult s1, s2;
    s1.warm_starts = 10;
    s1.cold_starts = 5;
    s1.latencies_sec = {1.0, 2.0};
    s2.warm_starts = 20;
    s2.cold_starts = 5;
    s2.dropped_timeout = 3;
    s2.latencies_sec = {3.0};
    r.servers = {s1, s2};
    EXPECT_EQ(r.warmStarts(), 30);
    EXPECT_EQ(r.coldStarts(), 10);
    EXPECT_EQ(r.dropped(), 3);
    EXPECT_DOUBLE_EQ(r.warmPercent(), 75.0);
    EXPECT_DOUBLE_EQ(r.meanLatencySec(), 2.0);
}

}  // namespace
}  // namespace faascache
