/**
 * @file
 * Probe transparency: a replay with the benchmark's layer probes
 * attached must produce a byte-identical result payload, on a tiny
 * trace of every workload, while the probes still see the calls.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "probes.h"
#include "workloads.h"

namespace faascache::perfbench {
namespace {

class ProbeTransparency : public ::testing::TestWithParam<Workload>
{
  protected:
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "perfbench_" +
            workloadName(GetParam()) + ".ftrace";
        invocations_ = compileWorkload(
            workloadModel(GetParam(), /*seed=*/3, Scale::Tiny), path_);
        region_ = FtraceRegion::open(path_);
    }

    void TearDown() override
    {
        region_.reset();
        std::remove(path_.c_str());
    }

    ReplayOutcome replay(std::size_t shards, const Probes& probes = {})
    {
        return replayWorkload(GetParam(), Scale::Tiny, region_, shards,
                              /*seed=*/3, probes);
    }

    std::string path_;
    std::size_t invocations_ = 0;
    std::shared_ptr<FtraceRegion> region_;
};

TEST_P(ProbeTransparency, ProbedReplayIsByteIdentical)
{
    ASSERT_GT(invocations_, 100u);
    const std::size_t shards = 2;
    const ReplayOutcome plain = replay(shards);
    EXPECT_EQ(plain.resolved, static_cast<std::int64_t>(invocations_));

    SourceProbeTotals source;
    PolicyProbeTotals policy;
    ShardProbeSink sink;
    Probes probes;
    probes.source = &source;
    probes.policy = &policy;
    probes.shards = &sink;
    const ReplayOutcome traced = replay(shards, probes);
    EXPECT_EQ(traced.payload, plain.payload);

    if (GetParam() == Workload::ClusterSharded) {
        // One probed cursor per shard thread, each decoding the stream.
        const std::vector<ShardSample> samples = sink.samples();
        ASSERT_EQ(samples.size(), shards);
        for (const ShardSample& sample : samples) {
            EXPECT_EQ(sample.cursor.next.count, invocations_);
            EXPECT_GT(sample.thread_cpu_ns, 0);
        }
        EXPECT_EQ(source.next.count, 0u);
        EXPECT_EQ(policy.notify.count, 0u);
    } else {
        EXPECT_EQ(source.next.count, invocations_);
        EXPECT_GT(source.peek.count, 0u);
        EXPECT_GT(policy.notify.count, invocations_);
        EXPECT_GT(policy.victims.count, 0u);
        EXPECT_GT(policy.expiry.count, 0u);
        EXPECT_TRUE(sink.samples().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ProbeTransparency,
    ::testing::Values(Workload::SimGd, Workload::ServerTtl,
                      Workload::ClusterSharded),
    [](const ::testing::TestParamInfo<Workload>& info) {
        return std::string(workloadName(info.param));
    });

}  // namespace
}  // namespace faascache::perfbench
