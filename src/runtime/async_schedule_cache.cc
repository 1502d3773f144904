#include "runtime/async_schedule_cache.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace scar
{
namespace runtime
{

AsyncScheduleCache::AsyncScheduleCache(ThreadPool& pool) : pool_(pool) {}

AsyncScheduleCache::~AsyncScheduleCache()
{
    // wait() (unlike get()) does not rethrow a failed solve, so this
    // drain is exception-free; abandoned results are simply dropped.
    // Workers only fulfil their promise and never touch the map.
    for (const auto& kv : entries_)
        if (kv.second.schedule == nullptr)
            kv.second.future.wait();
}

std::shared_ptr<AsyncScheduleCache::Promise>
AsyncScheduleCache::registerLocked(const std::string& key, double readySec)
{
    ++stats_.misses;
    debug("async schedule cache: solve for mix ", key);
    auto promise = std::make_shared<Promise>();
    entries_.emplace(
        key, Entry{nullptr, promise->get_future().share(), readySec});
    return promise;
}

void
AsyncScheduleCache::launch(std::shared_ptr<Promise> promise,
                           const MixFn& mix, const ComputeFn& compute)
{
    // The worker only fulfills the promise; promotion into the store
    // happens at join() on the (virtual-time) event loop, so
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
        if (entries_.count(key) > 0)
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
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Stored, or in flight: the running solve is reused, not
            // restarted.
            ++stats_.hits;
            result.schedule = it->second.schedule;
            result.readySec = result.schedule != nullptr
                                  ? nowSec
                                  : std::max(nowSec, it->second.readySec);
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
    auto it = entries_.find(key);
    if (it == entries_.end())
        return result;
    result.schedule = it->second.schedule;
    if (result.schedule == nullptr) {
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
        auto it = entries_.find(key);
        SCAR_REQUIRE(it != entries_.end(),
                     "async schedule cache: join of unknown mix ", key);
        if (it->second.schedule != nullptr)
            return it->second.schedule;
        pending = it->second.future;
    }
    // Wall-clock wait outside the lock. A failed solve is erased
    // before rethrowing so the key can be retried rather than
    // pinning a dead future in the map forever.
    std::shared_ptr<const CachedSchedule> schedule;
    try {
        schedule = pending.get();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(key);
        throw;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_.at(key);
    entry.schedule = schedule;
    entry.future = Future();
    return schedule;
}

void
AsyncScheduleCache::drainInFlight()
{
    for (;;) {
        std::string next;
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = std::find_if(
                entries_.begin(), entries_.end(), [](const auto& kv) {
                    return kv.second.schedule == nullptr;
                });
            if (it == entries_.end())
                break;
            next = it->first;
        }
        join(next);
    }
}

ScheduleCacheStats
AsyncScheduleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
AsyncScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(),
        [](const auto& kv) { return kv.second.schedule != nullptr; }));
}

} // namespace runtime
} // namespace scar
