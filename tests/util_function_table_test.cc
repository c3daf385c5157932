#include "util/function_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace faascache {
namespace {

struct Row
{
    std::int64_t value = 7;
};

TEST(FunctionTable, RowsAreCreatedInFirstSeenOrderAndValueInitialized)
{
    FunctionTable<Row> table;
    table.reserve(100);
    EXPECT_EQ(table.size(), 0u);
    table[42].value = 1;
    table[3].value = 2;
    EXPECT_EQ(table[90].value, 7);  // fresh row: default member value
    EXPECT_EQ(table.size(), 3u);
    // Re-access finds the same row; no new one is created.
    table[42].value += 10;
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table[42].value, 11);
    EXPECT_EQ(table[3].value, 2);
}

TEST(FunctionTable, FindNeverCreatesAndReturnsNullForUnseenIds)
{
    FunctionTable<Row> table;
    table.reserve(16);
    const FunctionTable<Row>& view = table;
    EXPECT_EQ(view.find(0), nullptr);
    EXPECT_EQ(view.find(15), nullptr);
    EXPECT_EQ(view.find(1u << 30), nullptr);  // beyond the slot map
    table[5].value = 3;
    ASSERT_NE(view.find(5), nullptr);
    EXPECT_EQ(view.find(5)->value, 3);
    EXPECT_EQ(view.find(4), nullptr);
    EXPECT_EQ(table.size(), 1u);
    table.find(5)->value = 4;
    EXPECT_EQ(table[5].value, 4);
}

TEST(FunctionTable, IdsBeyondTheReserveHintGrowTheSlotMap)
{
    FunctionTable<Row> table;
    table.reserve(4);
    table[2].value = 20;
    table[1000].value = 1000;  // far past the hint
    table[5].value = 50;       // between hint and the grown size
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table[2].value, 20);
    EXPECT_EQ(table[1000].value, 1000);
    EXPECT_EQ(table[5].value, 50);
    EXPECT_EQ(table.find(999), nullptr);
    // No reserve at all works too.
    FunctionTable<Row> bare;
    bare[7].value = 1;
    EXPECT_EQ(bare.size(), 1u);
    EXPECT_EQ(bare.find(6), nullptr);
}

TEST(FunctionTable, WalkIsInAscendingIdOrderRegardlessOfFirstSeenOrder)
{
    FunctionTable<Row> table;
    table.reserve(10);
    const std::vector<FunctionId> first_seen = {9, 0, 4, 300, 2};
    for (FunctionId id : first_seen)
        table[id].value = static_cast<std::int64_t>(id) * 2;
    std::vector<std::pair<FunctionId, std::int64_t>> walked;
    table.forEachById([&](FunctionId id, const Row& row) {
        walked.emplace_back(id, row.value);
    });
    const std::vector<std::pair<FunctionId, std::int64_t>> expected = {
        {0, 0}, {2, 4}, {4, 8}, {9, 18}, {300, 600}};
    EXPECT_EQ(walked, expected);
}

}  // namespace
}  // namespace faascache
