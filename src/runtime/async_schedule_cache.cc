#include "runtime/async_schedule_cache.h"

#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace scar
{
namespace runtime
{

AsyncScheduleCache::AsyncScheduleCache(ThreadPool& pool,
                                       ScheduleCacheOptions options)
    : pool_(pool), store_(options)
{
}

AsyncScheduleCache::~AsyncScheduleCache()
{
    // wait() (unlike get()) does not rethrow a failed solve, so this
    // drain is exception-free; abandoned results are simply dropped.
    for (;;) {
        Future pending;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (inflight_.empty())
                break;
            pending = inflight_.begin()->second.future;
            inflight_.erase(inflight_.begin());
        }
        pending.wait();
    }
}

std::function<void()>
AsyncScheduleCache::launchLocked(const std::string& signature,
                                 const Scenario& mix,
                                 const ComputeFn& compute,
                                 double readySec)
{
    ++stats_.misses;
    debug("async schedule cache: solve for mix ", signature);
    auto promise = std::make_shared<
        std::promise<std::shared_ptr<const CachedSchedule>>>();
    inflight_.emplace(signature,
                      Inflight{promise->get_future().share(), readySec});
    // The worker only fulfills the promise; promotion into the LRU
    // store happens at join() on the (virtual-time) event loop, so
    // store contents never depend on wall-clock solve speed. Copy mix
    // and compute: the caller's references may die before the worker
    // runs. The task is returned rather than submitted here because
    // a zero-worker pool runs submissions inline — the solve must
    // not execute under the cache lock.
    return [promise, mix, compute] {
        try {
            promise->set_value(makeCachedSchedule(mix, compute));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    };
}

std::shared_ptr<const CachedSchedule>
AsyncScheduleCache::getOrCompute(const Scenario& mix,
                                 const ComputeFn& compute)
{
    return getOrCompute(mix.signature(), mix, compute);
}

std::shared_ptr<const CachedSchedule>
AsyncScheduleCache::getOrCompute(const std::string& key,
                                 const Scenario& mix,
                                 const ComputeFn& compute)
{
    Future pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = store_.find(key)) {
            ++stats_.hits;
            return hit;
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            ++stats_.hits;
            pending = it->second.future;
        }
    }
    if (pending.valid())
        return pending.get();

    // First caller for this signature: register the in-flight entry,
    // then compute on this thread (the caller would block anyway, and
    // computing here cannot starve the pool of workers).
    auto promise = std::make_shared<
        std::promise<std::shared_ptr<const CachedSchedule>>>();
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Double-check: another thread may have won the race between
        // the two critical sections.
        if (auto hit = store_.find(key)) {
            ++stats_.hits;
            return hit;
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            ++stats_.hits;
            pending = it->second.future;
        } else {
            ++stats_.misses;
            inflight_.emplace(
                key, Inflight{promise->get_future().share(), 0.0});
        }
    }
    if (pending.valid())
        return pending.get();

    std::shared_ptr<const CachedSchedule> entry;
    try {
        entry = makeCachedSchedule(mix, compute);
    } catch (...) {
        promise->set_exception(std::current_exception());
        {
            // Drop the poisoned in-flight entry so a later caller can
            // retry the solve instead of rejoining the dead future.
            std::lock_guard<std::mutex> lock(mu_);
            inflight_.erase(key);
        }
        throw;
    }
    promise->set_value(entry);
    {
        std::lock_guard<std::mutex> lock(mu_);
        store_.insert(key, entry);
        inflight_.erase(key);
    }
    return entry;
}

void
AsyncScheduleCache::prefetch(const Scenario& mix,
                             const ComputeFn& compute, double readySec)
{
    prefetch(mix.signature(), mix, compute, readySec);
}

void
AsyncScheduleCache::prefetch(const std::string& key,
                             const Scenario& mix,
                             const ComputeFn& compute, double readySec)
{
    std::function<void()> solve;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (store_.find(key) != nullptr ||
            inflight_.count(key) > 0)
            return;
        solve = launchLocked(key, mix, compute, readySec);
    }
    pool_.submit(std::move(solve));
}

AsyncLookup
AsyncScheduleCache::lookup(const Scenario& mix,
                           const ComputeFn& compute, double nowSec,
                           double modeledSolveSec)
{
    return lookup(mix.signature(), mix, compute, nowSec,
                  modeledSolveSec);
}

AsyncLookup
AsyncScheduleCache::lookup(const std::string& key, const Scenario& mix,
                           const ComputeFn& compute, double nowSec,
                           double modeledSolveSec)
{
    AsyncLookup result;
    std::function<void()> solve;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = store_.find(key)) {
            ++stats_.hits;
            result.schedule = std::move(hit);
            result.readySec = nowSec;
            return result;
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            // The running solve is reused, not restarted.
            ++stats_.hits;
            result.readySec = std::max(nowSec, it->second.readySec);
            return result;
        }
        solve = launchLocked(key, mix, compute,
                             nowSec + modeledSolveSec);
    }
    pool_.submit(std::move(solve));
    result.readySec = nowSec + modeledSolveSec;
    result.startedSolve = true;
    return result;
}

CachePeek
AsyncScheduleCache::peek(const std::string& key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CachePeek result;
    result.schedule = store_.peek(key);
    if (result.schedule != nullptr)
        return result;
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
        result.inFlight = true;
        result.readySec = it->second.readySec;
    }
    return result;
}

std::shared_ptr<const CachedSchedule>
AsyncScheduleCache::join(const std::string& signature)
{
    Future pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = store_.find(signature))
            return hit;
        auto it = inflight_.find(signature);
        SCAR_REQUIRE(it != inflight_.end(),
                     "async schedule cache: join of unknown mix ",
                     signature);
        pending = it->second.future;
    }
    // Wall-clock wait outside the lock. A failed solve is erased
    // before rethrowing so the signature can be retried rather than
    // pinning a dead future in the in-flight map forever.
    std::shared_ptr<const CachedSchedule> entry;
    try {
        entry = pending.get();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(signature);
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_.erase(signature) > 0)
            store_.insert(signature, entry);
    }
    return entry;
}

void
AsyncScheduleCache::drainInFlight()
{
    for (;;) {
        std::string next;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (inflight_.empty())
                break;
            next = inflight_.begin()->first;
        }
        join(next);
    }
}

ScheduleCacheStats
AsyncScheduleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ScheduleCacheStats stats = stats_;
    stats.evictions = store_.stats().evictions;
    return stats;
}

std::size_t
AsyncScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size();
}

std::size_t
AsyncScheduleCache::capacity() const
{
    return store_.capacity();
}

} // namespace runtime
} // namespace scar
