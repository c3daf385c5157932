/**
 * @file
 * Queue-timeout boundary semantics: a request expires only when its
 * wait strictly exceeds queue_timeout_us, same-timestamp arrivals drop
 * in FIFO order, and an expired queue head never blocks a dispatchable
 * request behind it.
 */
#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "platform/server.h"

namespace faascache {
namespace {

FunctionSpec
fn(FunctionId id, MemMb mem, double warm_sec = 1.0, double init_sec = 1.0)
{
    return makeFunction(id, "fn" + std::to_string(id), mem,
                        fromSeconds(warm_sec), fromSeconds(init_sec));
}

PlatformResult
run(const Trace& trace, const ServerConfig& cfg)
{
    Server server(makePolicy(PolicyKind::GreedyDual), cfg);
    return server.run(trace);
}

TEST(QueueTimeout, WaitExactlyAtTimeoutIsStillDispatched)
{
    // fn0 holds the single core until t = 10 s. fn1 arrives at t = 2 s
    // with an 8 s timeout: at the t = 10 s drain its wait is exactly
    // queue_timeout_us, which must NOT expire it (expiry is strict >).
    Trace t("boundary");
    t.addFunction(fn(0, 100, 10.0, 0.0));
    t.addFunction(fn(1, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, 2 * kSecond);

    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = 8 * kSecond;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.served(), 2);
    EXPECT_EQ(r.dropped_timeout, 0);
    ASSERT_EQ(r.latencies_sec.size(), 2u);
    EXPECT_NEAR(r.latencies_sec[1], 9.0, 1e-6);  // 8 s wait + 1 s run
}

TEST(QueueTimeout, WaitOneTickPastTimeoutExpires)
{
    // Same shape, timeout one microsecond shorter: the t = 10 s drain
    // sees an 8 s wait > (8 s - 1 us) and must drop the request.
    Trace t("boundary");
    t.addFunction(fn(0, 100, 10.0, 0.0));
    t.addFunction(fn(1, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, 2 * kSecond);

    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = 8 * kSecond - 1;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.served(), 1);
    EXPECT_EQ(r.dropped_timeout, 1);
    EXPECT_EQ(r.outcomeOf(1).dropped, 1);
}

TEST(QueueTimeout, SameTimestampArrivalsDropInFifoOrder)
{
    // Four distinct functions arrive at the same instant behind a
    // saturated core with a queue of two: trace order decides who gets
    // buffered, so the overflow drops must hit exactly fn3 and fn4.
    Trace t("fifo");
    t.addFunction(fn(0, 100, 100.0, 0.0));
    for (FunctionId id = 1; id <= 4; ++id)
        t.addFunction(fn(id, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    for (FunctionId id = 1; id <= 4; ++id)
        t.addInvocation(id, kSecond);

    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 10'000;
    cfg.queue_capacity = 2;
    cfg.queue_timeout_us = kHour;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.dropped_queue_full, 2);
    EXPECT_EQ(r.outcomeOf(1).dropped, 0);
    EXPECT_EQ(r.outcomeOf(2).dropped, 0);
    EXPECT_EQ(r.outcomeOf(3).dropped, 1);
    EXPECT_EQ(r.outcomeOf(4).dropped, 1);
}

TEST(QueueTimeout, SameTimestampExpiriesAllDropAtOneDrain)
{
    // Both queued requests share the same enqueue time and the same
    // deadline; the drain that expires one must expire both (no request
    // survives on queue position alone).
    Trace t("expire-pair");
    t.addFunction(fn(0, 100, 60.0, 0.0));
    t.addFunction(fn(1, 100, 1.0, 0.0));
    t.addFunction(fn(2, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(2, kSecond);

    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = 10 * kSecond;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.served(), 1);
    EXPECT_EQ(r.dropped_timeout, 2);
    EXPECT_EQ(r.outcomeOf(1).dropped, 1);
    EXPECT_EQ(r.outcomeOf(2).dropped, 1);
}

TEST(QueueTimeout, ExpiredHeadDoesNotBlockDispatchableRequest)
{
    // fn1 (queued at t = 1 s, 10 s timeout) has expired by the time the
    // core frees at t = 20 s; fn2 (queued at t = 15 s, warm hit on
    // fn0's container) is dispatchable. One drain must drop the expired
    // head AND serve the request behind it.
    Trace t("expired-head");
    t.addFunction(fn(0, 100, 20.0, 0.0));
    t.addFunction(fn(1, 100, 1.0, 0.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(0, 15 * kSecond);

    ServerConfig cfg;
    cfg.cores = 1;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = 10 * kSecond;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.dropped_timeout, 1);
    EXPECT_EQ(r.outcomeOf(1).dropped, 1);
    EXPECT_EQ(r.served(), 2);
    EXPECT_EQ(r.warm_starts, 1);
    ASSERT_EQ(r.latencies_sec.size(), 2u);
    // Served at t = 20 s off a warm container: 5 s wait + 20 s run.
    EXPECT_NEAR(r.latencies_sec[1], 25.0, 1e-6);
}

TEST(QueueTimeout, MemoryBlockedHeadDoesNotBlockSmallerRequest)
{
    // The head needs memory held by a busy container (not dispatchable,
    // not expired); a small request behind it must still start — the
    // per-activation scheduling the server models.
    Trace t("blocked-head");
    t.addFunction(fn(0, 900, 50.0, 0.0));
    t.addFunction(fn(1, 900, 1.0, 1.0));
    t.addFunction(fn(2, 100, 1.0, 1.0));
    t.addInvocation(0, 0);
    t.addInvocation(1, kSecond);
    t.addInvocation(2, 2 * kSecond);

    ServerConfig cfg;
    cfg.cores = 4;
    cfg.memory_mb = 1'000;
    cfg.queue_timeout_us = kHour;
    const PlatformResult r = run(t, cfg);

    EXPECT_EQ(r.served(), 3);
    ASSERT_EQ(r.latencies_sec.size(), 3u);
    // fn2 started at t = 2 s (2 s cold) — it never waited for fn1,
    // which could only start after fn0 finished at t = 50 s.
    EXPECT_NEAR(r.latencies_sec[0], 2.0, 1e-6);
    EXPECT_GT(r.latencies_sec[2], 40.0);
}

}  // namespace
}  // namespace faascache
