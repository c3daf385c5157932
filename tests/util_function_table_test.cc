#include "util/function_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace faascache {
namespace {

struct Row
{
    std::int64_t value = 7;
};

using Walk = std::vector<std::pair<FunctionId, std::int64_t>>;

Walk
walkOf(const FunctionTable<Row>& table)
{
    Walk walked;
    table.forEachById([&](FunctionId id, const Row& row) {
        walked.emplace_back(id, row.value);
    });
    return walked;
}

Walk
walkOf(const std::map<FunctionId, std::int64_t>& oracle)
{
    return Walk(oracle.begin(), oracle.end());
}

/** The table's structural promises: the index is a power of two at
 *  most half full, and the walk is the oracle's ascending-id walk. */
void
expectMatchesOracle(const FunctionTable<Row>& table,
                    const std::map<FunctionId, std::int64_t>& oracle)
{
    ASSERT_EQ(table.size(), oracle.size());
    const std::size_t capacity = table.indexCapacity();
    if (oracle.empty()) {
        EXPECT_EQ(capacity, 0u);
    } else {
        EXPECT_EQ(capacity & (capacity - 1), 0u) << capacity;
        EXPECT_LE(2 * table.size(), capacity);
    }
    for (const auto& [id, value] : oracle) {
        const Row* row = table.find(id);
        ASSERT_NE(row, nullptr) << id;
        EXPECT_EQ(row->value, value) << id;
    }
    EXPECT_EQ(walkOf(table), walkOf(oracle));
}

TEST(FunctionTable, RowsAreCreatedInFirstSeenOrderAndValueInitialized)
{
    FunctionTable<Row> table;
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
    // Row indices follow first-seen order.
    EXPECT_EQ(table.rowOf(42), 0u);
    EXPECT_EQ(table.rowOf(3), 1u);
    EXPECT_EQ(table.rowOf(90), 2u);
}

TEST(FunctionTable, FindNeverCreatesAndReturnsNullForUnseenIds)
{
    FunctionTable<Row> table;
    const FunctionTable<Row>& view = table;
    EXPECT_EQ(view.find(0), nullptr);
    EXPECT_EQ(view.find(15), nullptr);
    EXPECT_EQ(view.find(1u << 30), nullptr);
    EXPECT_EQ(table.indexCapacity(), 0u);  // lookups allocate nothing
    table[5].value = 3;
    ASSERT_NE(view.find(5), nullptr);
    EXPECT_EQ(view.find(5)->value, 3);
    EXPECT_EQ(view.find(4), nullptr);
    EXPECT_EQ(table.size(), 1u);
    table.find(5)->value = 4;
    EXPECT_EQ(table[5].value, 4);
    // A thousand misses later, still one row.
    for (FunctionId id = 6; id < 1006; ++id)
        EXPECT_EQ(table.find(id), nullptr);
    EXPECT_EQ(table.size(), 1u);
}

TEST(FunctionTable, FarApartIdsGetExactRows)
{
    FunctionTable<Row> table;
    table[2].value = 20;
    table[1000].value = 1000;
    table[5].value = 50;
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table[2].value, 20);
    EXPECT_EQ(table[1000].value, 1000);
    EXPECT_EQ(table[5].value, 50);
    EXPECT_EQ(table.find(999), nullptr);
    // Memory follows the rows, not the largest id.
    EXPECT_LE(table.indexCapacity(), 8u);
}

TEST(FunctionTable, ExtremeIdsZeroAndLargestValid)
{
    // UINT32_MAX is kInvalidFunction (the index's empty marker); every
    // id below it is a valid key.
    constexpr FunctionId kLargest = std::numeric_limits<FunctionId>::max() - 1;
    FunctionTable<Row> table;
    EXPECT_EQ(table.find(0), nullptr);
    EXPECT_EQ(table.find(kLargest), nullptr);
    table[kLargest].value = -1;
    EXPECT_EQ(table.find(0), nullptr);
    table[0].value = 1;
    ASSERT_NE(table.find(kLargest), nullptr);
    EXPECT_EQ(table.find(kLargest)->value, -1);
    EXPECT_EQ(table.find(0)->value, 1);
    EXPECT_EQ(table.find(kLargest - 1), nullptr);
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(walkOf(table), (Walk{{0, 1}, {kLargest, -1}}));
}

TEST(FunctionTable, CollidingIdsProbeToTheirOwnRows)
{
    // Ids that share a home slot of the first 8-slot index, found with
    // the Fibonacci hash function_table.h uses. Were the hash to change,
    // these ids would still be valid keys; only the collisions would go.
    const auto home8 = [](FunctionId id) {
        return (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 61;
    };
    std::vector<FunctionId> same_home;
    for (FunctionId id = 0; same_home.size() < 3; ++id) {
        if (home8(id) == home8(0))
            same_home.push_back(id);
    }
    FunctionTable<Row> table;
    std::map<FunctionId, std::int64_t> oracle;
    for (FunctionId id : same_home) {
        table[id].value = static_cast<std::int64_t>(id) + 100;
        oracle[id] = static_cast<std::int64_t>(id) + 100;
    }
    EXPECT_EQ(table.indexCapacity(), 8u);  // 3 rows: no growth yet
    expectMatchesOracle(table, oracle);
    // A colliding id never inserted is a miss, not a neighbour's row.
    FunctionId absent = same_home.back() + 1;
    while (home8(absent) != home8(0))
        ++absent;
    EXPECT_EQ(table.find(absent), nullptr);
}

TEST(FunctionTable, GrowthAcrossThresholdsKeepsRowsAndIndices)
{
    FunctionTable<Row> table;
    std::map<FunctionId, std::int64_t> oracle;
    std::vector<std::uint32_t> rows;
    std::size_t last_capacity = 0;
    int growths = 0;
    for (FunctionId k = 0; k < 600; ++k) {
        // Strided ids: the pattern a modulo balancer would route to one
        // server.
        const FunctionId id = k * 256 + 3;
        rows.push_back(table.rowOf(id));
        EXPECT_EQ(rows.back(), k);
        table.row(rows.back()).value = k;
        oracle[id] = k;
        if (table.indexCapacity() != last_capacity) {
            ++growths;
            last_capacity = table.indexCapacity();
            // Every earlier row survives the rehash at its index.
            for (FunctionId j = 0; j <= k; ++j)
                ASSERT_EQ(table.rowOf(j * 256 + 3), rows[j]) << j;
            expectMatchesOracle(table, oracle);
        }
    }
    EXPECT_GE(growths, 7);  // 8 → 2048 slots
    expectMatchesOracle(table, oracle);
}

TEST(FunctionTable, RandomOperationsMatchAMapOracle)
{
    Rng rng(20261020);
    FunctionTable<Row> table;
    std::map<FunctionId, std::int64_t> oracle;
    for (int op = 0; op < 20'000; ++op) {
        // Mostly a small id range (hits and collisions), sometimes any
        // 32-bit id below the empty marker.
        const FunctionId id = rng.uniform() < 0.9
            ? static_cast<FunctionId>(rng.nextU64() % 4096)
            : static_cast<FunctionId>(rng.nextU64() %
                                      std::numeric_limits<FunctionId>::max());
        if (rng.uniform() < 0.5) {
            const Row* row = table.find(id);
            const auto it = oracle.find(id);
            ASSERT_EQ(row != nullptr, it != oracle.end()) << id;
            if (row != nullptr) {
                EXPECT_EQ(row->value, it->second);
            }
        } else {
            table[id].value += op;
            oracle.emplace(id, 7).first->second += op;
        }
        ASSERT_EQ(table.size(), oracle.size());
    }
    expectMatchesOracle(table, oracle);
}

TEST(FunctionTable, WalkIsInAscendingIdOrderRegardlessOfFirstSeenOrder)
{
    FunctionTable<Row> table;
    const std::vector<FunctionId> first_seen = {9, 0, 4, 300, 2};
    for (FunctionId id : first_seen)
        table[id].value = static_cast<std::int64_t>(id) * 2;
    const Walk expected = {{0, 0}, {2, 4}, {4, 8}, {9, 18}, {300, 600}};
    EXPECT_EQ(walkOf(table), expected);
}

}  // namespace
}  // namespace faascache
