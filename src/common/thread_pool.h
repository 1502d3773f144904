/**
 * @file
 * Fixed-size worker pool: the parallel execution substrate shared by
 * the search engines (combo fan-out, EA population evaluation) and
 * the serving runtime (background schedule solves).
 *
 * Concurrency model:
 *  - A pool of `concurrency` is the caller thread plus concurrency-1
 *    workers, so ThreadPool(1) has no workers and degrades to fully
 *    serial inline execution — the `-DSCAR_THREADS=1` CI job exercises
 *    exactly this path.
 *  - parallelFor(n, body) runs body(0..n-1) with the caller claiming
 *    indices alongside the workers (caller-help). Because the caller
 *    always participates and tasks claim indices from a shared atomic
 *    counter, nested parallelFor calls from inside pool tasks cannot
 *    deadlock: worst case the nested loop runs entirely on the
 *    already-running thread.
 *  - IndexStream runs body(0..n-1) in the background while its
 *    caller consumes finished prefixes: the caller runs any index
 *    still unclaimed when it needs it, and only ever waits on indices
 *    another thread is already running, so it cannot deadlock either.
 *    parallelFor is an IndexStream the caller consumes whole.
 *  - submit(fn) enqueues a future-backed task; with no workers it runs
 *    fn inline at submit time, which reduces the async schedule cache
 *    to the blocking PR 1 behavior under SCAR_THREADS=1.
 *
 * Determinism contract: the pool provides raw concurrency only. All
 * SCAR search results are bit-identical at any pool size because the
 * parallelized loops (a) derive per-task RNG streams from
 * mixSeed(seed, index) rather than sharing one generator, and (b)
 * merge per-task results in fixed index order before any ranking.
 */

#ifndef SCAR_COMMON_THREAD_POOL_H
#define SCAR_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace scar
{

/** Fixed-size worker pool with parallelFor and task futures. */
class ThreadPool
{
  public:
    /**
     * @param concurrency total parallelism including the caller
     *        thread (>= 1); 0 picks defaultConcurrency()
     */
    explicit ThreadPool(int concurrency = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total parallelism: worker threads + the calling thread. */
    int concurrency() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * The process-wide default pool, sized by the SCAR_THREADS
     * environment variable, else the SCAR_DEFAULT_THREADS build
     * option, else std::thread::hardware_concurrency().
     */
    static ThreadPool& global();

    /** The concurrency global() is (or would be) created with. */
    static int defaultConcurrency();

    /**
     * Runs body(i) for every i in [0, n) and blocks until all
     * complete. The caller participates, so the call never deadlocks
     * even when issued from inside a pool task. Every index runs;
     * if any body throws, the exception of the lowest failing index
     * is rethrown after the loop drains — the one a serial loop
     * would raise — so the reported error does not depend on the
     * pool size or on which worker failed first.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& body);

    /**
     * Enqueues fn on the pool and returns its future. With zero
     * workers (concurrency 1) fn runs inline before returning.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<decltype(fn())>
    {
        using R = decltype(fn());
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return future;
        }
        enqueue([task] { (*task)(); });
        return future;
    }

  private:
    friend class IndexStream;

    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * body(0..n-1), run in the background while the caller consumes it
 * in index order. Pool helpers (at most n-1) and the caller claim
 * indices from one shared counter, in index order. waitThrough(end)
 * returns once body(i) has finished for every i < end: it first runs
 * every index below `end` that is still unclaimed, then waits only
 * for indices other threads are running. It never waits on a helper
 * still queued behind the caller, so a caller that is itself a pool
 * task cannot deadlock. With a null pool, or one without workers,
 * the caller runs every index itself, in order, inside waitThrough.
 *
 * Errors follow parallelFor: once any body has thrown, waitThrough
 * drains the stream (every index runs) and rethrows the exception of
 * the lowest failing index. The destructor drains without throwing,
 * so no thread is inside body once it returns; a late helper then
 * claims nothing and only touches the shared control block.
 */
class IndexStream
{
  public:
    IndexStream(ThreadPool* pool, std::size_t n,
                std::function<void(std::size_t)> body);
    ~IndexStream();

    IndexStream(const IndexStream&) = delete;
    IndexStream& operator=(const IndexStream&) = delete;

    /** Blocks until body(0..end-1) have finished (end <= n). */
    void waitThrough(std::size_t end);

  private:
    struct Ctl;
    std::shared_ptr<Ctl> ctl_;
};

/**
 * Runs body(0..n-1) on the pool, or inline when pool is null — the
 * shared dispatch idiom of every optionally-parallel loop (combo
 * fan-out, segmentation refinement, EA fitness batches).
 */
inline void
forEachIndex(ThreadPool* pool, std::size_t n,
             const std::function<void(std::size_t)>& body)
{
    if (pool != nullptr) {
        pool->parallelFor(n, body);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        body(i);
}

} // namespace scar

#endif // SCAR_COMMON_THREAD_POOL_H
