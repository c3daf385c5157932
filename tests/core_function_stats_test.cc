#include "core/function_stats.h"

#include <gtest/gtest.h>

namespace faascache {
namespace {

TEST(FunctionStats, DefaultsAreZero)
{
    FunctionStatsTable table;
    const FunctionStats& s = std::as_const(table).of(7);
    EXPECT_EQ(s.frequency, 0);
    EXPECT_EQ(s.total_invocations, 0);
    EXPECT_EQ(s.last_arrival_us, -1);
    // Const lookup must not create entries.
    EXPECT_EQ(table.size(), 0u);
}

TEST(FunctionStats, RecordArrivalUpdatesAll)
{
    FunctionStatsTable table;
    table.recordArrival(1, 1000);
    table.recordArrival(1, 2000);
    const FunctionStats& s = table.of(1);
    EXPECT_EQ(s.frequency, 2);
    EXPECT_EQ(s.total_invocations, 2);
    EXPECT_EQ(s.last_arrival_us, 2000);
}

TEST(FunctionStats, ResetFrequencyKeepsTotals)
{
    FunctionStatsTable table;
    table.recordArrival(1, 1000);
    table.recordArrival(1, 2000);
    table.resetFrequency(1);
    const FunctionStats& s = table.of(1);
    EXPECT_EQ(s.frequency, 0);
    EXPECT_EQ(s.total_invocations, 2);
    EXPECT_EQ(s.last_arrival_us, 2000);
}

TEST(FunctionStats, ResetUnknownFunctionIsNoop)
{
    FunctionStatsTable table;
    table.resetFrequency(99);
    EXPECT_EQ(table.size(), 0u);
}

TEST(FunctionStats, NeverSeenFunctionsReadZeroAndIdsGrowPastTheHint)
{
    FunctionStatsTable table;
    table.recordArrival(2, 10);
    table.recordArrival(5000, 20);  // far past the ids seen so far
    const FunctionStatsTable& view = table;
    EXPECT_EQ(view.of(5000).frequency, 1);
    EXPECT_EQ(view.of(5000).last_arrival_us, 20);
    EXPECT_EQ(view.of(2).last_arrival_us, 10);
    // Ids never recorded, inside and beyond the grown range, read zero
    // and are not counted as observed.
    EXPECT_EQ(view.of(3).frequency, 0);
    EXPECT_EQ(view.of(3).last_arrival_us, -1);
    EXPECT_EQ(view.of(1u << 30).total_invocations, 0);
    table.resetFrequency(4999);
    EXPECT_EQ(table.size(), 2u);
}

TEST(FunctionStats, IndependentPerFunction)
{
    FunctionStatsTable table;
    table.recordArrival(1, 10);
    table.recordArrival(2, 20);
    table.recordArrival(2, 30);
    EXPECT_EQ(table.of(1).frequency, 1);
    EXPECT_EQ(table.of(2).frequency, 2);
    EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace faascache
