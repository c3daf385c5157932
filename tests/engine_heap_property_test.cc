// Property test for the engine's flat 4-ary heap: against a classic
// binary-heap reference (std::priority_queue with the same comparator),
// random (time, lane, seq) streams must pop in the identical order.
// Because the ordering key is a *total* order — seq is unique — the
// sorted pop sequence is the only legal one regardless of heap arity,
// so any disagreement here means a broken sift primitive, not a benign
// layout difference. Interleaved schedule/pop is exercised too, since
// that is the operation the sweep runs hammer.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "engine/event_engine.h"
#include "util/rng.h"

namespace faascache {
namespace {

enum class TestKind : std::uint8_t
{
    Tick,
};

using Event = EngineEvent<TestKind>;

/** The engine's (time, lane, seq) order, spelled out independently so a
 *  comparator bug in the engine cannot hide in the reference. */
struct PopsLater
{
    bool operator()(const Event& a, const Event& b) const
    {
        if (a.time_us != b.time_us)
            return a.time_us > b.time_us;
        if (a.lane != b.lane)
            return a.lane > b.lane;
        return a.seq > b.seq;
    }
};

/** Binary-heap reference model mirroring EventCore's visible API. */
class BinaryHeapReference
{
  public:
    void schedule(TimeUs time_us, EventLane lane, std::uint64_t payload)
    {
        Event event;
        event.time_us = time_us;
        event.lane = lane;
        event.seq = next_seq_++;
        event.kind = TestKind::Tick;
        event.payload = payload;
        heap_.push(event);
    }

    bool empty() const { return heap_.empty(); }

    Event pop()
    {
        Event event = heap_.top();
        heap_.pop();
        return event;
    }

  private:
    std::priority_queue<Event, std::vector<Event>, PopsLater> heap_;
    std::uint64_t next_seq_ = 0;
};

void
expectSameEvent(const Event& got, const Event& want, std::size_t step,
                std::uint64_t trial_seed)
{
    ASSERT_EQ(got.time_us, want.time_us)
        << "pop " << step << " of trial seed " << trial_seed;
    ASSERT_EQ(got.lane, want.lane)
        << "pop " << step << " of trial seed " << trial_seed;
    ASSERT_EQ(got.seq, want.seq)
        << "pop " << step << " of trial seed " << trial_seed;
    ASSERT_EQ(got.payload, want.payload)
        << "pop " << step << " of trial seed " << trial_seed;
}

TEST(HeapProperty, BulkScheduleThenDrainMatchesBinaryHeap)
{
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
        const std::uint64_t seed = 0xabcd0000 + trial;
        Rng rng(seed);
        EventCore<TestKind> core;
        BinaryHeapReference reference;

        // A narrow time range forces heavy timestamp collisions, so the
        // lane and FIFO tie-breaks carry most of the ordering.
        const std::size_t n = 200 + rng.uniformInt(800);
        for (std::size_t i = 0; i < n; ++i) {
            const auto time_us = static_cast<TimeUs>(rng.uniformInt(50));
            const EventLane lane = rng.uniformInt(4) == 0
                ? EventLane::Failure
                : EventLane::Normal;
            core.schedule(time_us, TestKind::Tick, /*payload=*/i, 0, lane);
            reference.schedule(time_us, lane, i);
        }

        std::size_t step = 0;
        while (!core.empty()) {
            ASSERT_FALSE(reference.empty());
            expectSameEvent(core.pop(), reference.pop(), step++, seed);
        }
        EXPECT_TRUE(reference.empty());
    }
}

TEST(HeapProperty, InterleavedScheduleAndPopMatchesBinaryHeap)
{
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
        const std::uint64_t seed = 0xbeef0000 + trial;
        Rng rng(seed);
        EventCore<TestKind> core;
        BinaryHeapReference reference;

        std::size_t step = 0;
        std::uint64_t payload = 0;
        for (std::size_t op = 0; op < 2000; ++op) {
            if (core.empty() || rng.uniformInt(3) != 0) {
                const auto time_us =
                    static_cast<TimeUs>(rng.uniformInt(100));
                const EventLane lane = rng.uniformInt(5) == 0
                    ? EventLane::Failure
                    : EventLane::Normal;
                core.schedule(time_us, TestKind::Tick, payload, 0, lane);
                reference.schedule(time_us, lane, payload);
                ++payload;
            } else {
                ASSERT_FALSE(reference.empty());
                expectSameEvent(core.pop(), reference.pop(), step++, seed);
            }
        }
        while (!core.empty()) {
            ASSERT_FALSE(reference.empty());
            expectSameEvent(core.pop(), reference.pop(), step++, seed);
        }
        EXPECT_TRUE(reference.empty());
    }
}

TEST(HeapProperty, DrainIsGloballySorted)
{
    // Independent of any reference: the popped stream must be strictly
    // increasing in (time, lane, seq) — the total order guarantees it.
    Rng rng(0x50f7);
    EventCore<TestKind> core;
    for (std::size_t i = 0; i < 3000; ++i) {
        core.schedule(static_cast<TimeUs>(rng.uniformInt(64)),
                      TestKind::Tick, i, 0,
                      rng.uniformInt(2) == 0 ? EventLane::Failure
                                             : EventLane::Normal);
    }
    PopsLater later;
    Event previous = core.pop();
    while (!core.empty()) {
        const Event next = core.pop();
        // previous must not pop later than next, and ties are impossible.
        EXPECT_TRUE(later(next, previous));
        previous = next;
    }
}

}  // namespace
}  // namespace faascache
