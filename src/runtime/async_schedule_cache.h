/**
 * @file
 * Asynchronous schedule cache: future-backed schedule solves on the
 * worker pool, so a cache miss no longer stalls the serving event
 * loop while Scar::run searches.
 *
 * Two clocks are in play and must not be confused:
 *  - Wall time: how long the background Scar::run actually takes on
 *    the pool. The event loop only blocks on it at join(), the moment
 *    a shard actually needs the schedule to start replaying.
 *  - Virtual time: the simulator clock. A solve started at virtual
 *    instant t is *usable* from t + modeledSolveSec — the modeled
 *    latency of running the search on the package's host. Keeping the
 *    usable instant virtual (recorded at solve start) makes serving
 *    results bit-identical regardless of how fast the wall-clock
 *    solve happens to finish.
 *
 * Lifecycle of a key (one map entry throughout):
 *   absent --prefetch/lookup--> in flight (future + virtual readySec)
 *          --join (at virtual readySec)--> stored
 *
 * Every stored schedule is kept for the cache's lifetime. In-flight
 * entries are promoted to stored only by join() (the deterministic
 * event loop) or drainInFlight() (end of run), never by the
 * background worker, so the store's contents depend only on virtual
 * time.
 *
 * The mix is handed in lazily (a callback yielding the Scenario):
 * it is called on the caller's thread, and only when a solve is
 * actually launched, so a probe or dispatch whose key is stored or in
 * flight builds no Scenario.
 *
 * Counters: misses = solves launched (speculative prefetches
 * included), hits = dispatch-time lookups served without launching a
 * solve (ready or already in flight).
 */

#ifndef SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H
#define SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_pool.h"
#include "runtime/schedule_cache.h"

namespace scar
{
namespace runtime
{

/** Outcome of a dispatch-time cache consultation. */
struct AsyncLookup
{
    /** The schedule when already usable, nullptr while solving. */
    std::shared_ptr<const CachedSchedule> schedule;
    /** Virtual instant the schedule is (or becomes) usable. */
    double readySec = 0.0;
    /** True when this lookup launched a new background solve. */
    bool startedSolve = false;
};

/** Non-mutating probe result (routing cost estimation). */
struct CachePeek
{
    /** The stored schedule, nullptr when absent or still solving. */
    std::shared_ptr<const CachedSchedule> schedule;
    /** True while a background solve for the key is running. */
    bool inFlight = false;
    /** Virtual usable instant of the in-flight solve. */
    double readySec = 0.0;

    /** Stored or in flight. */
    bool known() const { return schedule != nullptr || inFlight; }
};

/** Thread-safe, future-backed schedule cache over a worker pool. */
class AsyncScheduleCache
{
  public:
    /** Yields the mix to solve; called only when a solve launches. */
    using MixFn = std::function<const Scenario&()>;

    /**
     * @param pool workers for background solves (not owned); with
     *        concurrency 1 solves run inline
     */
    explicit AsyncScheduleCache(ThreadPool& pool);

    /**
     * Blocks until every background solve has finished: solve tasks
     * reference caller-owned state (the compute closure), so they
     * must never outlive the cache — even when a run aborts with an
     * exception before its normal drainInFlight().
     */
    ~AsyncScheduleCache();

    /**
     * Begins a background solve for the key unless it is already
     * stored or in flight (idempotent — the serving loop calls this
     * speculatively whenever a batch is ready but every shard is
     * busy). `mix` is called only when the solve launches.
     * @param readySec virtual instant the result becomes usable
     */
    void prefetch(const std::string& key, const MixFn& mix,
                  const ComputeFn& compute, double readySec);

    /**
     * Dispatch-time consultation: a usable schedule counts a hit; an
     * in-flight solve counts a hit and reports when it lands; an
     * unknown key counts a miss and launches the solve (calling
     * `mix`) with readySec = nowSec + modeledSolveSec.
     */
    AsyncLookup lookup(const std::string& key, const MixFn& mix,
                       const ComputeFn& compute, double nowSec,
                       double modeledSolveSec);

    /**
     * Non-mutating probe: reports whether the key is stored or in
     * flight (and the in-flight virtual ready instant) without
     * touching the hit/miss counters. Cost-aware routing peeks at
     * every candidate shard's cache; only the eventual dispatch-time
     * lookup() may count.
     */
    CachePeek peek(const std::string& key) const;

    /**
     * Waits (wall clock) for the key's solve and promotes it into
     * the store. The key must be stored or in flight — i.e. join()
     * only follows a prefetch/lookup.
     */
    std::shared_ptr<const CachedSchedule> join(const std::string& key);

    /**
     * Joins every in-flight solve (end of a serving run), so
     * speculative solves are stored before stats are read and no
     * background work bleeds past run boundaries.
     */
    void drainInFlight();

    /** Counter snapshot (exact once background solves have
     *  quiesced). */
    ScheduleCacheStats stats() const;

    /** Completed schedules in the store (in-flight excluded). */
    std::size_t size() const;

  private:
    using Future =
        std::shared_future<std::shared_ptr<const CachedSchedule>>;

    struct Entry
    {
        /** The stored schedule; nullptr while the solve is in
         *  flight. */
        std::shared_ptr<const CachedSchedule> schedule;
        /** The in-flight solve; reset once stored. */
        Future future;
        /** Virtual usable instant of the in-flight solve. */
        double readySec = 0.0;
    };

    using Promise = std::promise<std::shared_ptr<const CachedSchedule>>;

    /**
     * Registers the key as in flight, counts the miss, and returns the
     * promise its solve fulfils. Caller must hold mu_ and have checked
     * absence.
     */
    std::shared_ptr<Promise> registerLocked(const std::string& key,
                                            double readySec);

    /**
     * Builds the mix and submits the solve of a registered key. Called
     * without mu_: `mix` is the caller's code, and a zero-worker pool
     * runs the submitted solve inline. Should `mix` throw, the dropped
     * promise breaks, so join() rethrows and erases the key.
     */
    void launch(std::shared_ptr<Promise> promise, const MixFn& mix,
                const ComputeFn& compute);

    ThreadPool& pool_;
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    ScheduleCacheStats stats_;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_ASYNC_SCHEDULE_CACHE_H
