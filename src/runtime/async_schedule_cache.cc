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

std::shared_ptr<AsyncScheduleCache::Promise>
AsyncScheduleCache::registerLocked(const std::string& key, double readySec)
{
    ++stats_.misses;
    debug("async schedule cache: solve for mix ", key);
    auto promise = std::make_shared<Promise>();
    inflight_.emplace(key,
                      Inflight{promise->get_future().share(), readySec});
    return promise;
}

void
AsyncScheduleCache::launch(std::shared_ptr<Promise> promise,
                           const MixFn& mix, const ComputeFn& compute)
{
    // The worker only fulfills the promise; promotion into the LRU
    // store happens at join() on the (virtual-time) event loop, so
    // store contents never depend on wall-clock solve speed. The task
    // owns a copy of the mix and compute: the caller's references may
    // die before the worker runs.
    pool_.submit([promise = std::move(promise), scenario = mix(), compute] {
        try {
            promise->set_value(makeCachedSchedule(scenario, compute));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
}

void
AsyncScheduleCache::prefetch(const std::string& key, const MixFn& mix,
                             const ComputeFn& compute, double readySec)
{
    std::shared_ptr<Promise> promise;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (store_.find(key) != nullptr || inflight_.count(key) > 0)
            return;
        promise = registerLocked(key, readySec);
    }
    launch(std::move(promise), mix, compute);
}

AsyncLookup
AsyncScheduleCache::lookup(const std::string& key, const MixFn& mix,
                           const ComputeFn& compute, double nowSec,
                           double modeledSolveSec)
{
    AsyncLookup result;
    std::shared_ptr<Promise> promise;
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
        promise = registerLocked(key, nowSec + modeledSolveSec);
    }
    launch(std::move(promise), mix, compute);
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
AsyncScheduleCache::join(const std::string& key)
{
    Future pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = store_.find(key))
            return hit;
        auto it = inflight_.find(key);
        SCAR_REQUIRE(it != inflight_.end(),
                     "async schedule cache: join of unknown mix ", key);
        pending = it->second.future;
    }
    // Wall-clock wait outside the lock. A failed solve is erased
    // before rethrowing so the key can be retried rather than
    // pinning a dead future in the in-flight map forever.
    std::shared_ptr<const CachedSchedule> entry;
    try {
        entry = pending.get();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_.erase(key) > 0)
            store_.insert(key, entry);
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
    stats.evictions = store_.evictions();
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
