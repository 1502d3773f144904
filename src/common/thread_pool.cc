#include "common/thread_pool.h"

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

    /**
     * Shared loop state. Tasks claim indices from `next`; a late task
     * that starts after the loop finished claims nothing and only
     * touches this control block (kept alive by shared_ptr), never
     * the caller-owned body.
     */
    struct Ctl
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t total = 0;
        const std::function<void(std::size_t)>* body = nullptr;
        std::mutex mu;
        std::condition_variable cv;
        std::exception_ptr error; ///< lowest failing index's (guarded by mu)
        std::size_t errorIndex = 0; ///< index of `error`, when set
    };
    auto ctl = std::make_shared<Ctl>();
    ctl->total = n;
    ctl->body = &body;

    const auto work = [](const std::shared_ptr<Ctl>& c) {
        for (;;) {
            const std::size_t i = c->next.fetch_add(1);
            if (i >= c->total)
                break;
            try {
                (*c->body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(c->mu);
                if (!c->error || i < c->errorIndex) {
                    c->error = std::current_exception();
                    c->errorIndex = i;
                }
            }
            if (c->done.fetch_add(1) + 1 == c->total) {
                std::lock_guard<std::mutex> lock(c->mu);
                c->cv.notify_all();
            }
        }
    };

    const std::size_t helpers = std::min(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue([ctl, work] { work(ctl); });
    work(ctl);

    std::unique_lock<std::mutex> lock(ctl->mu);
    ctl->cv.wait(lock,
                 [&] { return ctl->done.load() >= ctl->total; });
    // Take the exception out of the control block, which a late task
    // may still hold: the caller then owns its last reference.
    if (ctl->error)
        std::rethrow_exception(std::exchange(ctl->error, nullptr));
}

} // namespace scar
