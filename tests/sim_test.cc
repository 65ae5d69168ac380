/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * virtual time, coroutine tasks, futures, timeouts, the
 * synchronization primitives, and the per-thread block pool that
 * coroutine frames and future states are drawn from.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "../bench/sweep_runner.hh"
#include "sim/future.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

using namespace sim;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;

TEST(EventQueue, FiresInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(EventQueue, SameTimeIsFifo)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        s.schedule(5, [&, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NestedSchedulingAdvancesTime)
{
    Simulator s;
    Time inner_fire = -1;
    s.schedule(10, [&] {
        s.schedule(15, [&] { inner_fire = s.now(); });
    });
    s.run();
    EXPECT_EQ(inner_fire, 25);
}

TEST(Simulator, RunUntilStopsAtBoundary)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(30, [&] { ++fired; });
    s.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    s.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunForSetsStopRequested)
{
    Simulator s;
    bool saw_stop = false;
    std::function<void()> tick = [&] {
        if (s.stopRequested()) {
            saw_stop = true;
            return;
        }
        s.schedule(kMillisecond, tick);
    };
    s.schedule(0, tick);
    s.runFor(10 * kMillisecond);
    EXPECT_TRUE(saw_stop);
}

namespace {

Task<int>
addLater(Simulator &s, int a, int b)
{
    co_await sleepFor(s, 5 * kMicrosecond);
    co_return a + b;
}

Task<void>
outer(Simulator &s, int &result)
{
    const int x = co_await addLater(s, 2, 3);
    const int y = co_await addLater(s, x, 10);
    result = y;
}

} // namespace

TEST(Task, NestedAwaitPropagatesValues)
{
    Simulator s;
    int result = 0;
    spawn(outer(s, result));
    s.run();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(s.now(), 10 * kMicrosecond);
}

TEST(Task, SpawnManyInterleave)
{
    Simulator s;
    int done = 0;
    auto worker = [&](int delay_us) -> Task<void> {
        co_await sleepFor(s, delay_us * kMicrosecond);
        ++done;
    };
    for (int i = 0; i < 50; ++i)
        spawn(worker(50 - i));
    s.run();
    EXPECT_EQ(done, 50);
}

TEST(Future, AwaitAlreadyResolved)
{
    Simulator s;
    Promise<int> p(s);
    p.set(42);
    int got = 0;
    auto reader = [&]() -> Task<void> { got = co_await p.future(); };
    spawn(reader());
    s.run();
    EXPECT_EQ(got, 42);
}

TEST(Future, MultipleWaitersAllWake)
{
    Simulator s;
    Promise<int> p(s);
    int sum = 0;
    auto reader = [&]() -> Task<void> { sum += co_await p.future(); };
    spawn(reader());
    spawn(reader());
    spawn(reader());
    s.schedule(100, [&] { p.set(7); });
    s.run();
    EXPECT_EQ(sum, 21);
}

TEST(Future, TimeoutFiresWhenUnresolved)
{
    Simulator s;
    Promise<int> p(s);
    bool timed_out = false;
    Time when = 0;
    auto reader = [&]() -> Task<void> {
        auto v = co_await p.future().withTimeout(kMillisecond);
        timed_out = !v.has_value();
        when = s.now();
    };
    spawn(reader());
    s.run();
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(when, kMillisecond);
}

TEST(Future, TimeoutBeatenByValue)
{
    Simulator s;
    Promise<int> p(s);
    std::optional<int> got;
    auto reader = [&]() -> Task<void> {
        got = co_await p.future().withTimeout(kMillisecond);
    };
    spawn(reader());
    s.schedule(10 * kMicrosecond, [&] { p.set(5); });
    s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5);
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulator s;
    Semaphore sem(s, 2);
    int active = 0;
    int max_active = 0;
    auto worker = [&]() -> Task<void> {
        co_await sem.acquire();
        ++active;
        max_active = std::max(max_active, active);
        co_await sleepFor(s, 10 * kMicrosecond);
        --active;
        sem.release();
    };
    for (int i = 0; i < 10; ++i)
        spawn(worker());
    s.run();
    EXPECT_EQ(active, 0);
    EXPECT_EQ(max_active, 2);
    EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, FifoWakeOrder)
{
    Simulator s;
    Semaphore sem(s, 1);
    std::vector<int> order;
    auto worker = [&](int id) -> Task<void> {
        co_await sem.acquire();
        order.push_back(id);
        co_await sleepFor(s, kMicrosecond);
        sem.release();
    };
    for (int i = 0; i < 5; ++i)
        spawn(worker(i));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mutex, ExclusionAcrossAwaits)
{
    Simulator s;
    Mutex m(s);
    int inside = 0;
    bool violated = false;
    auto critical = [&]() -> Task<void> {
        co_await m.lock();
        LockGuard g(m);
        if (inside != 0)
            violated = true;
        ++inside;
        co_await sleepFor(s, 3 * kMicrosecond);
        --inside;
    };
    for (int i = 0; i < 8; ++i)
        spawn(critical());
    s.run();
    EXPECT_FALSE(violated);
    EXPECT_FALSE(m.locked());
}

TEST(Quorum, WakesAtThreshold)
{
    Simulator s;
    Quorum q(s, 2);
    Time woke_at = -1;
    auto waiter = [&]() -> Task<void> {
        co_await q.wait();
        woke_at = s.now();
    };
    spawn(waiter());
    s.schedule(10, [&] { q.arrive(); });
    s.schedule(20, [&] { q.arrive(); });
    s.schedule(30, [&] { q.arrive(); }); // late arrival: accepted, no-op
    s.run();
    EXPECT_EQ(woke_at, 20);
    EXPECT_EQ(q.arrived(), 3u);
}

TEST(Quorum, AlreadySatisfiedDoesNotBlock)
{
    Simulator s;
    Quorum q(s, 1);
    q.arrive();
    bool ran = false;
    auto waiter = [&]() -> Task<void> {
        co_await q.wait();
        ran = true;
    };
    spawn(waiter());
    s.run();
    EXPECT_TRUE(ran);
}

// ------------------------------------------------------------ BlockPool

namespace {

using sim::detail::BlockPool;

Task<std::uint64_t>
poolLeaf(Simulator &s, std::uint64_t v)
{
    // A future state and a timer per leaf, resolved one microsecond on.
    Promise<std::uint64_t> p(s);
    s.schedule(kMicrosecond, [p, v]() mutable { p.set(v); });
    co_return co_await p.future();
}

Task<std::uint64_t>
poolMiddle(Simulator &s, std::uint64_t v)
{
    const std::uint64_t a = co_await poolLeaf(s, v);
    const std::uint64_t b = co_await poolLeaf(s, v + 1);
    co_return a + b;
}

/** Sum over i < rounds of (2i + 1), computed through nested tasks. */
Task<void>
poolChurn(Simulator &s, std::uint64_t rounds, std::uint64_t &sum)
{
    for (std::uint64_t i = 0; i < rounds; ++i)
        sum += co_await poolMiddle(s, i);
}

std::uint64_t
churnOnce(std::uint64_t tasks, std::uint64_t rounds)
{
    Simulator s;
    std::uint64_t sum = 0;
    for (std::uint64_t t = 0; t < tasks; ++t)
        spawn(poolChurn(s, rounds, sum));
    s.run();
    return sum;
}

} // namespace

TEST(BlockPool, WarmTasksDrawOnlyReusedBlocks)
{
    constexpr std::uint64_t kTasks = 16;
    constexpr std::uint64_t kRounds = 200;
    constexpr std::uint64_t kExpect = kTasks * kRounds * kRounds;
    // Warm-up sizes every free list for this shape of work.
    ASSERT_EQ(churnOnce(kTasks, kRounds), kExpect);

    const BlockPool *pool = BlockPool::local();
    ASSERT_NE(pool, nullptr);
    const std::uint64_t fresh = pool->freshAllocations();
    const std::uint64_t reused = pool->reusedAllocations();
    ASSERT_EQ(churnOnce(kTasks, kRounds), kExpect);
    EXPECT_EQ(pool->freshAllocations(), fresh);
    // Per round: a middle frame, two leaf frames and two future
    // states; plus one churn frame per task.
    EXPECT_EQ(pool->reusedAllocations() - reused,
              kTasks * (kRounds * 5 + 1));
}

TEST(BlockPool, OversizedFramePassesThroughToHeap)
{
    Simulator s;
    std::uint64_t out = 0;
    auto big = [](Simulator &sim, std::uint64_t *result) -> Task<void> {
        // Live across the suspension, so the array is in the frame.
        std::array<std::uint8_t, 2 * BlockPool::kMaxBlock> buf{};
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(i);
        co_await sleepFor(sim, kMicrosecond);
        std::uint64_t total = 0;
        for (const std::uint8_t b : buf)
            total += b;
        *result = total;
    };
    // Attach the pool before reading its counters.
    const BlockPool *pool = BlockPool::local();
    ASSERT_NE(pool, nullptr);
    const std::uint64_t fresh = pool->freshAllocations();
    const std::uint64_t reused = pool->reusedAllocations();
    spawn(big(s, &out));
    s.run();
    // 2 * kMaxBlock bytes of 0..255 repeating.
    EXPECT_EQ(out, 2 * BlockPool::kMaxBlock / 256 * (255 * 256 / 2));
    EXPECT_EQ(pool->freshAllocations(), fresh);
    EXPECT_EQ(pool->reusedAllocations(), reused);
}

TEST(BlockPool, FrameFreedAfterThreadExitGoesToHeap)
{
    // A thread_local constructed before the thread's pool is destroyed
    // after it; the frame it still owns must bypass the dead pool.
    static bool pool_gone_at_release = false;
    struct LateOwner
    {
        Task<std::uint64_t> task;
        ~LateOwner()
        {
            pool_gone_at_release = BlockPool::local() == nullptr;
        }
    };
    std::thread worker([] {
        thread_local LateOwner owner;
        Simulator s;
        owner.task = poolLeaf(s, 1); // never started
    });
    worker.join();
    EXPECT_TRUE(pool_gone_at_release);
}

TEST(BlockPool, ConcurrentSweepThreadsStayCorrect)
{
    constexpr std::size_t kCells = 8;
    constexpr std::uint64_t kTasks = 8;
    constexpr std::uint64_t kRounds = 300;
    std::vector<std::uint64_t> sums(kCells, 0);
    bench::SweepRunner runner(2);
    runner.run(kCells, [&](std::size_t i) {
        sums[i] = churnOnce(kTasks, kRounds);
    });
    for (const std::uint64_t sum : sums)
        EXPECT_EQ(sum, kTasks * kRounds * kRounds);
}

#if defined(__SANITIZE_ADDRESS__)

namespace {

/** Publishes the address of a local that lives in the frame. */
Task<void>
exposeFrameLocal(Simulator &s, volatile int **out)
{
    volatile int local = 7;
    *out = &local;
    co_await sleepFor(s, kMicrosecond);
    local = local + 1;
}

} // namespace

TEST(BlockPoolDeathTest, UseOfDestroyedFrameIsReported)
{
    // A detached task frees its frame when it completes; the block then
    // sits poisoned on the free list, so touching it must still fail.
    Simulator s;
    volatile int *dangling = nullptr;
    spawn(exposeFrameLocal(s, &dangling));
    s.run();
    ASSERT_NE(dangling, nullptr);
    EXPECT_DEATH(*dangling = 1, "use-after-poison");
}

TEST(BlockPoolDeathTest, UseOfFreedBlockIsReported)
{
    // Same for any pooled block (future states are allocated this way).
    void *block = BlockPool::allocate(64);
    BlockPool::deallocate(block, 64);
    EXPECT_DEATH(static_cast<volatile char *>(block)[8] = 1,
                 "use-after-poison");
}

#endif // __SANITIZE_ADDRESS__
