#include "trace/trace.h"

#include <gtest/gtest.h>

namespace faascache {
namespace {

Trace
makeSmallTrace()
{
    Trace t("small");
    t.addFunction(makeFunction(0, "a", 100, fromSeconds(1), fromSeconds(1)));
    t.addFunction(makeFunction(1, "b", 200, fromSeconds(2), fromSeconds(2)));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(0, 2 * kSecond);
    return t;
}

TEST(FunctionSpec, Validity)
{
    FunctionSpec ok = makeFunction(0, "x", 64, fromMillis(10), fromMillis(5));
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(ok.initTime(), fromMillis(5));
    EXPECT_EQ(ok.cold_us, fromMillis(15));

    FunctionSpec bad = ok;
    bad.mem_mb = 0;
    EXPECT_FALSE(bad.valid());

    bad = ok;
    bad.cold_us = bad.warm_us - 1;
    EXPECT_FALSE(bad.valid());

    bad = ok;
    bad.id = kInvalidFunction;
    EXPECT_FALSE(bad.valid());
}

TEST(FunctionSpec, SpansAreBoundedByTheArrivalLimit)
{
    // cold_us (hence warm_us) may reach kMaxArrivalUs, not pass it, so
    // arrival + cold span + queue timeout stays inside TimeUs.
    FunctionSpec edge = makeFunction(0, "edge", 64, 1, kMaxArrivalUs - 1);
    EXPECT_EQ(edge.cold_us, kMaxArrivalUs);
    EXPECT_TRUE(edge.valid());
    FunctionSpec over = edge;
    over.cold_us = kMaxArrivalUs + 1;
    EXPECT_FALSE(over.valid());
    over.warm_us = kMaxArrivalUs + 1;
    EXPECT_FALSE(over.valid());
}

TEST(Trace, ValidateAcceptsGoodTrace)
{
    EXPECT_TRUE(makeSmallTrace().validate());
}

TEST(Trace, ValidateRejectsUnknownFunction)
{
    Trace t = makeSmallTrace();
    t.addInvocation(5, 0);
    EXPECT_FALSE(t.validate());
}

TEST(Trace, ValidateRejectsNegativeTime)
{
    Trace t = makeSmallTrace();
    t.addInvocation(0, -1);
    EXPECT_FALSE(t.validate());
}

TEST(Trace, SortInvocations)
{
    Trace t("unsorted");
    t.addFunction(makeFunction(0, "a", 1, 1, 1));
    t.addInvocation(0, 30);
    t.addInvocation(0, 10);
    t.addInvocation(0, 20);
    EXPECT_FALSE(t.isSorted());
    t.sortInvocations();
    EXPECT_TRUE(t.isSorted());
    EXPECT_EQ(t.invocations()[0].arrival_us, 10);
    EXPECT_EQ(t.invocations()[2].arrival_us, 30);
}

TEST(Trace, SortIsStableForEqualTimes)
{
    Trace t("ties");
    t.addFunction(makeFunction(0, "a", 1, 1, 1));
    t.addFunction(makeFunction(1, "b", 1, 1, 1));
    t.addInvocation(0, 10);
    t.addInvocation(1, 10);
    t.sortInvocations();
    EXPECT_EQ(t.invocations()[0].function, 0u);
    EXPECT_EQ(t.invocations()[1].function, 1u);
}

TEST(Trace, StatsComputed)
{
    const TraceStats s = makeSmallTrace().stats();
    EXPECT_EQ(s.num_functions, 2u);
    EXPECT_EQ(s.num_invocations, 3u);
    EXPECT_EQ(s.duration_us, 2 * kSecond);
    EXPECT_NEAR(s.requests_per_sec, 1.5, 1e-9);
    EXPECT_EQ(s.avg_iat_us, kSecond);
    EXPECT_DOUBLE_EQ(s.total_unique_mem_mb, 300.0);
}

TEST(Trace, StatsEmptyTrace)
{
    Trace t("empty");
    const TraceStats s = t.stats();
    EXPECT_EQ(s.num_invocations, 0u);
    EXPECT_EQ(s.requests_per_sec, 0.0);
}

TEST(Trace, InvocationCounts)
{
    const auto counts = makeSmallTrace().invocationCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
}

TEST(Trace, SubsetRemapsIds)
{
    const Trace t = makeSmallTrace();
    const Trace sub = t.subset({1}, "sub");
    ASSERT_EQ(sub.functions().size(), 1u);
    EXPECT_EQ(sub.functions()[0].id, 0u);
    EXPECT_EQ(sub.functions()[0].name, "b");
    ASSERT_EQ(sub.invocations().size(), 1u);
    EXPECT_EQ(sub.invocations()[0].function, 0u);
    EXPECT_TRUE(sub.validate());
}

TEST(Trace, SubsetPreservesOrder)
{
    const Trace t = makeSmallTrace();
    const Trace sub = t.subset({0, 1}, "all");
    EXPECT_EQ(sub.invocations().size(), 3u);
    EXPECT_TRUE(sub.isSorted());
}

TEST(Trace, SubsetIgnoresDuplicateIds)
{
    const Trace t = makeSmallTrace();
    const Trace sub = t.subset({0, 0}, "dup");
    EXPECT_EQ(sub.functions().size(), 1u);
}

TEST(Trace, SubsetThrowsOnBadId)
{
    const Trace t = makeSmallTrace();
    EXPECT_THROW(t.subset({9}, "bad"), std::out_of_range);
}

// Boundary the sharded-cluster partitioner depends on: a kept function
// with zero invocations must stay in the subset's catalog with a dense
// id (a server whose hash-home functions never fire still exists, and
// its shard must still participate in barriers with an empty cursor).
TEST(Trace, SubsetKeepsZeroInvocationFunctions)
{
    Trace t = makeSmallTrace();
    t.addFunction(
        makeFunction(2, "idle", 64, fromSeconds(1), fromSeconds(1)));
    // No invocations of "idle" at all.
    const Trace sub = t.subset({1, 2}, "with-idle");
    ASSERT_EQ(sub.functions().size(), 2u);
    EXPECT_EQ(sub.functions()[0].name, "b");
    EXPECT_EQ(sub.functions()[1].name, "idle");
    EXPECT_EQ(sub.functions()[1].id, 1u);
    ASSERT_EQ(sub.invocations().size(), 1u);
    EXPECT_EQ(sub.invocations()[0].function, 0u);
    EXPECT_TRUE(sub.validate());
    const std::vector<std::size_t> counts = sub.invocationCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[1], 0u);
}

}  // namespace
}  // namespace faascache
