#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace scar
{

ThreadPool::ThreadPool(int concurrency)
{
    if (concurrency <= 0)
        concurrency = defaultConcurrency();
    SCAR_REQUIRE(concurrency >= 1, "thread pool concurrency must be >= 1");
    workers_.reserve(concurrency - 1);
    for (int w = 0; w + 1 < concurrency; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

int
ThreadPool::defaultConcurrency()
{
    if (const char* env = std::getenv("SCAR_THREADS")) {
        const int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
#ifdef SCAR_DEFAULT_THREADS
    if (SCAR_DEFAULT_THREADS >= 1)
        return SCAR_DEFAULT_THREADS;
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : static_cast<int>(hw);
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(defaultConcurrency());
    return pool;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    IndexStream(this, n, body).waitThrough(n);
}

/**
 * Shared stream state. Threads claim indices from `next`; a late
 * helper that starts after the stream drained claims nothing and only
 * touches this block (kept alive by shared_ptr), never what body
 * refers to.
 */
struct IndexStream::Ctl
{
    Ctl(std::size_t n, std::function<void(std::size_t)> fn)
        : total(n), body(std::move(fn)), finished(n, 0)
    {
    }

    /** Claims and runs indices while the next one is below `end`. */
    void
    runBelow(std::size_t end)
    {
        while (next.load() < end) {
            const std::size_t i = next.fetch_add(1);
            if (i >= total)
                return;
            run(i);
        }
    }

    void
    run(std::size_t i)
    {
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!error || i < errorIndex) {
                error = std::current_exception();
                errorIndex = i;
            }
        }
        // Published only once this thread holds no reference to the
        // exception, which the waiter may take and rethrow at once.
        {
            std::lock_guard<std::mutex> lock(mu);
            finished[i] = 1;
        }
        cv.notify_all();
    }

    /** Blocks until body(0..end-1) have finished; the caller's lock. */
    void
    awaitBelow(std::unique_lock<std::mutex>& lock, std::size_t end)
    {
        cv.wait(lock, [&] {
            while (ready < end && finished[ready])
                ++ready;
            return ready >= end;
        });
    }

    std::atomic<std::size_t> next{0};
    const std::size_t total;
    const std::function<void(std::size_t)> body;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<char> finished; ///< per index (guarded by mu)
    std::size_t ready = 0;      ///< [0, ready) finished (guarded by mu)
    std::exception_ptr error;   ///< lowest failing index's (guarded by mu)
    std::size_t errorIndex = 0; ///< index of `error`, when set
};

IndexStream::IndexStream(ThreadPool* pool, std::size_t n,
                         std::function<void(std::size_t)> body)
    : ctl_(std::make_shared<Ctl>(n, std::move(body)))
{
    const std::size_t workers = pool ? pool->workers_.size() : 0;
    const std::size_t helpers = n == 0 ? 0 : std::min(workers, n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        pool->enqueue([ctl = ctl_] { ctl->runBelow(ctl->total); });
}

IndexStream::~IndexStream()
{
    ctl_->runBelow(ctl_->total);
    std::unique_lock<std::mutex> lock(ctl_->mu);
    ctl_->awaitBelow(lock, ctl_->total);
}

void
IndexStream::waitThrough(std::size_t end)
{
    SCAR_REQUIRE(end <= ctl_->total, "waitThrough(", end,
                 ") past the stream's ", ctl_->total, " indices");
    ctl_->runBelow(end);
    std::unique_lock<std::mutex> lock(ctl_->mu);
    ctl_->awaitBelow(lock, end);
    if (!ctl_->error)
        return;
    // Drain, then take the exception out of the control block, which
    // a late helper may still hold: the caller then owns its last
    // reference.
    lock.unlock();
    ctl_->runBelow(ctl_->total);
    lock.lock();
    ctl_->awaitBelow(lock, ctl_->total);
    std::rethrow_exception(std::exchange(ctl_->error, nullptr));
}

} // namespace scar
