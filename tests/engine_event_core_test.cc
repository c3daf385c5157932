/**
 * @file
 * Unit and property tests of the shared discrete-event engine core
 * (engine/event_engine.h): (time, lane, seq) ordering, the
 * lane-then-FIFO same-timestamp property under randomized event mixes,
 * heap reserve()/clear(), the cooperative cancellation hook, SimClock,
 * and PeriodicSchedule.
 */
#include "engine/event_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/periodic_schedule.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace faascache {
namespace {

enum class TestKind
{
    A,
    B,
    Fault,
};

using Core = EventCore<TestKind>;

TEST(EventCore, OrdersByTime)
{
    Core q;
    q.schedule(30, TestKind::A, 3);
    q.schedule(10, TestKind::A, 1);
    q.schedule(20, TestKind::B, 2);
    EXPECT_EQ(q.pop().payload, 1u);
    EXPECT_EQ(q.pop().payload, 2u);
    EXPECT_EQ(q.pop().payload, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(EventCore, FifoWithinSameTimestampAndLane)
{
    Core q;
    for (std::uint64_t i = 0; i < 10; ++i)
        q.schedule(100, TestKind::A, i);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(q.pop().payload, i);
}

TEST(EventCore, FailureLaneDeliversAfterNormalAtSameTimestamp)
{
    Core q;
    // Scheduled first, but the Failure lane loses every same-time tie.
    q.scheduleFailure(50, TestKind::Fault, 99);
    q.schedule(50, TestKind::A, 1);
    q.schedule(50, TestKind::B, 2);
    EXPECT_EQ(q.pop().payload, 1u);
    EXPECT_EQ(q.pop().payload, 2u);
    const auto fault = q.pop();
    EXPECT_EQ(fault.payload, 99u);
    EXPECT_EQ(fault.lane, EventLane::Failure);
}

TEST(EventCore, FailureLaneStillOrdersByTimeFirst)
{
    Core q;
    q.scheduleFailure(10, TestKind::Fault, 1);
    q.schedule(20, TestKind::A, 2);
    // An earlier Failure-lane event precedes a later Normal one.
    EXPECT_EQ(q.pop().payload, 1u);
    EXPECT_EQ(q.pop().payload, 2u);
}

TEST(EventCore, NextTimePeeksAndSizeCounts)
{
    Core q;
    q.schedule(42, TestKind::A);
    EXPECT_EQ(q.nextTime(), 42);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventCore, KindAndPayloadsPreserved)
{
    Core q;
    q.schedule(5, TestKind::B, 777, 42);
    const auto e = q.pop();
    EXPECT_EQ(e.kind, TestKind::B);
    EXPECT_EQ(e.payload, 777u);
    EXPECT_EQ(e.payload2, 42u);
    EXPECT_EQ(e.time_us, 5);
    EXPECT_EQ(e.lane, EventLane::Normal);
}

TEST(EventCore, InterleavedScheduleAndPop)
{
    Core q;
    q.schedule(10, TestKind::A, 1);
    q.schedule(20, TestKind::A, 2);
    EXPECT_EQ(q.pop().payload, 1u);
    q.schedule(15, TestKind::A, 3);
    EXPECT_EQ(q.pop().payload, 3u);
    EXPECT_EQ(q.pop().payload, 2u);
}

// The engine-wide determinism property: ANY mix of same-timestamp
// events dequeues lane-first, then FIFO within the lane — for
// randomized interleavings of schedule order, lanes, and timestamps.
TEST(EventCore, PropertyRandomSameTimestampMixesDequeueLaneThenFifo)
{
    Rng rng(20210617);
    for (int round = 0; round < 200; ++round) {
        Core q;
        struct Expect
        {
            TimeUs time_us;
            EventLane lane;
            std::uint64_t seq;  // schedule order = FIFO rank
            std::uint64_t payload;
        };
        std::vector<Expect> scheduled;
        const int events = 2 + static_cast<int>(rng.uniformInt(64));
        // A handful of distinct timestamps so collisions are common.
        const int distinct_times = 1 + static_cast<int>(rng.uniformInt(4));
        for (int i = 0; i < events; ++i) {
            const TimeUs t =
                static_cast<TimeUs>(rng.uniformInt(distinct_times)) * 10;
            const bool failure = rng.uniformInt(3) == 0;
            const auto payload = static_cast<std::uint64_t>(i);
            if (failure)
                q.scheduleFailure(t, TestKind::Fault, payload);
            else
                q.schedule(t, TestKind::A, payload);
            scheduled.push_back(
                {t, failure ? EventLane::Failure : EventLane::Normal,
                 static_cast<std::uint64_t>(i), payload});
        }
        // The specified order: stable sort by (time, lane), which keeps
        // schedule order (FIFO) within each (time, lane) bucket.
        std::stable_sort(scheduled.begin(), scheduled.end(),
                         [](const Expect& a, const Expect& b) {
                             if (a.time_us != b.time_us)
                                 return a.time_us < b.time_us;
                             return a.lane < b.lane;
                         });
        for (const Expect& want : scheduled) {
            ASSERT_FALSE(q.empty());
            const auto got = q.pop();
            ASSERT_EQ(got.time_us, want.time_us)
                << "round " << round;
            ASSERT_EQ(got.lane, want.lane) << "round " << round;
            ASSERT_EQ(got.payload, want.payload) << "round " << round;
        }
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventCore, ReserveAvoidsMidRunReallocation)
{
    Core q;
    q.reserve(1000);
    const std::size_t reserved = q.capacity();
    EXPECT_GE(reserved, 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        q.schedule(i, TestKind::A, i);
    EXPECT_EQ(q.capacity(), reserved);
}

TEST(EventCore, ClearDropsStaleEventsAndResetsSequencing)
{
    Core q;
    q.schedule(10, TestKind::A, 1);
    q.schedule(20, TestKind::A, 2);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    // Sequencing restarts: a fresh run's first event gets seq 0 again,
    // so per-run FIFO order never depends on previous runs.
    q.schedule(5, TestKind::B, 7);
    const auto e = q.pop();
    EXPECT_EQ(e.seq, 0u);
    EXPECT_EQ(e.payload, 7u);
}

TEST(EventCore, ClearKeepsReservedCapacity)
{
    Core q;
    q.reserve(256);
    const std::size_t reserved = q.capacity();
    for (std::uint64_t i = 0; i < 200; ++i)
        q.schedule(i, TestKind::A, i);
    q.clear();
    EXPECT_EQ(q.capacity(), reserved);
}

TEST(EventCore, BoundCancellationTokenThrowsOnPop)
{
    Core q;
    CancellationToken token;
    q.bindCancellation(&token);
    q.schedule(10, TestKind::A, 1);
    EXPECT_EQ(q.pop().payload, 1u);  // not yet cancelled: normal pop
    q.schedule(20, TestKind::A, 2);
    token.cancel(CancelReason::Signal);
    EXPECT_THROW(q.pop(), CancelledError);
    // The event is still pending; unbinding resumes delivery.
    q.bindCancellation(nullptr);
    EXPECT_EQ(q.pop().payload, 2u);
}

TEST(SimClock, AdvancesMonotonicallyAndResets)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0);
    clock.advanceTo(10);
    clock.advanceTo(10);  // same instant is fine
    clock.advanceTo(25);
    EXPECT_EQ(clock.now(), 25);
    clock.reset();
    EXPECT_EQ(clock.now(), 0);
    clock.reset(5);
    EXPECT_EQ(clock.now(), 5);
}

TEST(PeriodicSchedule, DisabledScheduleNeverFires)
{
    PeriodicSchedule schedule;  // default: disabled
    EXPECT_FALSE(schedule.enabled());
    int fired = 0;
    schedule.catchUp(1'000'000, [&](TimeUs) { ++fired; });
    EXPECT_EQ(fired, 0);

    PeriodicSchedule zero(0, 0);
    EXPECT_FALSE(zero.enabled());
    zero.catchUp(1'000'000, [&](TimeUs) { ++fired; });
    EXPECT_EQ(fired, 0);
}

TEST(PeriodicSchedule, CatchUpFiresEveryDueTickWithItsOwnDueTime)
{
    PeriodicSchedule schedule(0, 10);
    std::vector<TimeUs> fired;
    schedule.catchUp(35, [&](TimeUs due) { fired.push_back(due); });
    EXPECT_EQ(fired, (std::vector<TimeUs>{0, 10, 20, 30}));
    EXPECT_EQ(schedule.nextDue(), 40);
    // Catching up to a time before the next due tick fires nothing.
    schedule.catchUp(39, [&](TimeUs due) { fired.push_back(due); });
    EXPECT_EQ(fired.size(), 4u);
    schedule.catchUp(40, [&](TimeUs due) { fired.push_back(due); });
    EXPECT_EQ(fired.back(), 40);
}

TEST(PeriodicSchedule, FirstDueOffsetIsHonored)
{
    // HRC refresh style: first due a full interval in.
    PeriodicSchedule schedule(50, 50);
    std::vector<TimeUs> fired;
    schedule.catchUp(49, [&](TimeUs due) { fired.push_back(due); });
    EXPECT_TRUE(fired.empty());
    schedule.catchUp(130, [&](TimeUs due) { fired.push_back(due); });
    EXPECT_EQ(fired, (std::vector<TimeUs>{50, 100}));
}

TEST(PeriodicSchedule, TickConsumesExactlyOne)
{
    PeriodicSchedule schedule(600, 600);
    EXPECT_EQ(schedule.tick(), 600);
    EXPECT_EQ(schedule.tick(), 1200);
    EXPECT_EQ(schedule.nextDue(), 1800);
    EXPECT_TRUE(schedule.due(1800));
    EXPECT_FALSE(schedule.due(1799));
}

TEST(EventLaneName, NamesAreStable)
{
    EXPECT_STREQ(eventLaneName(EventLane::Normal), "normal");
    EXPECT_STREQ(eventLaneName(EventLane::Failure), "failure");
}

TEST(EventCoreBatch, EmptyBatchIsNoOp)
{
    Core q;
    q.scheduleBatch({});
    EXPECT_TRUE(q.empty());
    q.schedule(5, TestKind::A, 1);
    q.scheduleBatch({});
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pop().payload, 1u);
}

TEST(EventCoreBatch, AssignsSequenceNumbersInArrayOrder)
{
    // Three same-timestamp items: FIFO among themselves, and a later
    // schedule() continues the same sequence (pops after them).
    Core q;
    std::vector<EventBatchItem<TestKind>> items;
    for (std::uint64_t i = 0; i < 3; ++i)
        items.push_back(EventBatchItem<TestKind>{10, TestKind::A, i, 0});
    q.scheduleBatch(items);
    q.schedule(10, TestKind::B, 99);
    EXPECT_EQ(q.pop().payload, 0u);
    EXPECT_EQ(q.pop().payload, 1u);
    EXPECT_EQ(q.pop().payload, 2u);
    EXPECT_EQ(q.pop().payload, 99u);
}

TEST(EventCoreBatch, FailureLaneBatchDeliversAfterNormal)
{
    Core q;
    std::vector<EventBatchItem<TestKind>> faults;
    faults.push_back(EventBatchItem<TestKind>{10, TestKind::Fault, 7, 0});
    q.scheduleBatch(faults, EventLane::Failure);
    q.schedule(10, TestKind::A, 1);
    EXPECT_EQ(q.pop().payload, 1u);
    const auto fault = q.pop();
    EXPECT_EQ(fault.payload, 7u);
    EXPECT_EQ(fault.lane, EventLane::Failure);
}

/**
 * Property: a batch admission pops in exactly the order the same items
 * would have popped had they been schedule()d one by one — across
 * small batches into a large heap (per-item sift path) and large
 * batches into a small heap (Floyd rebuild path), interleaved with
 * pops and further singles.
 */
TEST(EventCoreBatch, PropertyBatchPopOrderMatchesIndividualSchedules)
{
    Rng rng(0xBA7C4u);
    for (int round = 0; round < 40; ++round) {
        Core batched;
        Core individual;
        std::uint64_t payload = 0;
        // Alternate phases: a run of singles, then a batch (sized to
        // hit both the sift and rebuild branches), then drain a few.
        for (int phase = 0; phase < 6; ++phase) {
            const std::size_t singles = rng.uniformInt(20);
            for (std::size_t i = 0; i < singles; ++i) {
                const TimeUs t = rng.uniformInt(50);
                const auto lane = rng.uniformInt(4) == 0
                    ? EventLane::Failure
                    : EventLane::Normal;
                batched.schedule(t, TestKind::A, payload, 0, lane);
                individual.schedule(t, TestKind::A, payload, 0, lane);
                ++payload;
            }
            std::vector<EventBatchItem<TestKind>> items;
            const std::size_t batch = rng.uniformInt(60);
            for (std::size_t i = 0; i < batch; ++i) {
                items.push_back(EventBatchItem<TestKind>{
                    static_cast<TimeUs>(rng.uniformInt(50)), TestKind::B,
                    payload, 0});
                ++payload;
            }
            batched.scheduleBatch(items);
            for (const auto& item : items)
                individual.schedule(item.time_us, item.kind, item.payload);
            const std::size_t pops =
                rng.uniformInt(batched.size() + 1);
            for (std::size_t i = 0; i < pops; ++i) {
                const auto a = batched.pop();
                const auto b = individual.pop();
                ASSERT_EQ(a.payload, b.payload);
                ASSERT_EQ(a.time_us, b.time_us);
                ASSERT_EQ(a.lane, b.lane);
                ASSERT_EQ(a.seq, b.seq);
            }
        }
        ASSERT_EQ(batched.size(), individual.size());
        while (!batched.empty())
            ASSERT_EQ(batched.pop().payload, individual.pop().payload);
    }
}

}  // namespace
}  // namespace faascache
