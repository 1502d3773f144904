/**
 * @file
 * Tests for the worker pool: full coverage of the index range,
 * serial degradation at concurrency 1, caller-help nesting,
 * exception propagation, and future-backed submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace scar
{
namespace
{

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (int concurrency : {1, 2, 4, 8}) {
        ThreadPool pool(concurrency);
        EXPECT_EQ(pool.concurrency(), concurrency);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> counts(n);
        pool.parallelFor(n, [&](std::size_t i) { ++counts[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ConcurrencyOneRunsInlineOnCaller)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    pool.parallelFor(64, [&](std::size_t) {
        seen.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 57)
                                          throw std::runtime_error("57");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex)
{
    // Index 3 fails late and index 60 at once, so on a parallel pool
    // the higher index usually fails first in wall-clock order; the
    // lower index's error must still be the one reported.
    for (int concurrency : {1, 4}) {
        ThreadPool pool(concurrency);
        for (int run = 0; run < 20; ++run) {
            std::string message;
            try {
                pool.parallelFor(64, [](std::size_t i) {
                    if (i == 3) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(2));
                        throw std::runtime_error("index 3");
                    }
                    if (i == 60)
                        throw std::runtime_error("index 60");
                });
            } catch (const std::runtime_error& e) {
                message = e.what();
            }
            EXPECT_EQ(message, "index 3")
                << "concurrency " << concurrency << ", run " << run;
        }
    }
}

TEST(ThreadPool, SubmitReturnsFutureResult)
{
    for (int concurrency : {1, 4}) {
        ThreadPool pool(concurrency);
        auto future = pool.submit([] { return 6 * 7; });
        EXPECT_EQ(future.get(), 42);
    }
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllComplete)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    int sum = 0;
    for (auto& f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 199 * 200 / 2);
}

TEST(IndexStream, WaitThroughReturnsWithTheWholePrefixFinished)
{
    for (int concurrency : {0, 1, 2, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (concurrency > 0)
            pool = std::make_unique<ThreadPool>(concurrency);
        const std::size_t n = 200;
        std::vector<std::atomic<int>> counts(n);
        IndexStream stream(pool.get(), n,
                           [&](std::size_t i) { ++counts[i]; });
        for (std::size_t end : {0, 1, 17, 17, 150, 200}) {
            stream.waitThrough(end);
            for (std::size_t i = 0; i < end; ++i)
                ASSERT_EQ(counts[i].load(), 1)
                    << "concurrency " << concurrency << ", index " << i;
        }
    }
}

TEST(IndexStream, CallerRunsWhatIsUnclaimedInOrderWithoutWorkers)
{
    for (int concurrency : {0, 1}) {
        std::unique_ptr<ThreadPool> pool;
        if (concurrency > 0)
            pool = std::make_unique<ThreadPool>(concurrency);
        std::vector<std::size_t> order;
        IndexStream stream(pool.get(), 10,
                           [&](std::size_t i) { order.push_back(i); });
        EXPECT_TRUE(order.empty()); // nothing runs before it is needed
        stream.waitThrough(4);
        EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
        stream.waitThrough(10);
        std::vector<std::size_t> all(10);
        std::iota(all.begin(), all.end(), std::size_t{0});
        EXPECT_EQ(order, all);
    }
}

TEST(IndexStream, NeverWaitsOnAHelperStillQueued)
{
    // The pool's only worker is blocked until the stream is done, so
    // the helper the stream enqueues cannot start before then: the
    // caller must run every index itself. The helper starts after the
    // stream is destroyed and must claim nothing.
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::future<void> blocker = pool.submit([gate] { gate.wait(); });
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> ran{0};
    {
        IndexStream stream(&pool, 32, [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++ran;
        });
        stream.waitThrough(32);
    }
    EXPECT_EQ(ran.load(), 32);
    release.set_value();
    blocker.get();
    // The worker takes tasks in order: the late helper ran before this.
    pool.submit([] {}).get();
    EXPECT_EQ(ran.load(), 32);
}

TEST(IndexStream, DestructorRunsEveryIndex)
{
    for (int concurrency : {1, 4}) {
        ThreadPool pool(concurrency);
        std::atomic<int> ran{0};
        {
            IndexStream stream(&pool, 100, [&](std::size_t) { ++ran; });
            stream.waitThrough(10);
        }
        EXPECT_EQ(ran.load(), 100) << "concurrency " << concurrency;
    }
}

TEST(IndexStream, FailureDrainsAndRethrowsTheLowestFailingIndex)
{
    for (int concurrency : {1, 4}) {
        ThreadPool pool(concurrency);
        std::atomic<int> ran{0};
        IndexStream stream(&pool, 64, [&](std::size_t i) {
            ++ran;
            if (i == 40) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                throw std::runtime_error("index 40");
            }
            if (i == 50)
                throw std::runtime_error("index 50");
        });
        std::string message;
        try {
            stream.waitThrough(64);
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        EXPECT_EQ(message, "index 40") << "concurrency " << concurrency;
        EXPECT_EQ(ran.load(), 64) << "concurrency " << concurrency;
    }
}

TEST(MixSeed, StreamsAreDistinctAndDeterministic)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 1000; ++s)
        seen.insert(mixSeed(42, s));
    EXPECT_EQ(seen.size(), 1000u) << "streams must not collide";
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
    EXPECT_NE(mixSeed(42, 7), mixSeed(43, 7));
}

} // namespace
} // namespace scar
