/**
 * @file
 * Schedule cache: memoizes the expensive two-level SCAR search per
 * unique model mix.
 *
 * The offline search (Scar::run) depends only on the scheduled mix —
 * which models at which batch sizes — and on the fixed MCM, never on
 * request identities or arrival times. The serving runtime therefore
 * keys cached schedules by mix signature: the first dispatch of a mix
 * pays the search, every later dispatch of the same mix replays the
 * cached schedule. The fleet keys by (mix signature, package
 * signature), so shards with different MCM templates never share a
 * schedule.
 *
 * An entry is the schedule's replay view, not the solved
 * ScheduleResult: per-window durations in seconds and, per model, the
 * index of the last window holding its layers (a model's requests
 * complete when that window's end boundary is crossed). That is all
 * the discrete-event executor reads; makeCachedSchedule derives it
 * from the solve and drops the result.
 *
 * Entries are handed out as shared_ptr<const CachedSchedule>: the
 * cache may be bounded by an LRU capacity, and eviction must not
 * invalidate a schedule an executor is still replaying — the replay
 * keeps its own reference alive.
 *
 * This class is a single-threaded LRU store; the serving runtime
 * wraps it in AsyncScheduleCache (runtime/async_schedule_cache.h),
 * which solves misses in the background and keeps the hit/miss
 * counters.
 */

#ifndef SCAR_RUNTIME_SCHEDULE_CACHE_H
#define SCAR_RUNTIME_SCHEDULE_CACHE_H

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/scar.h"
#include "workload/scenario.h"

namespace scar
{
namespace runtime
{

/** A memoized schedule's replay view: what a replay reads. */
struct CachedSchedule
{
    /** Duration of each schedule window in seconds, replay order. */
    std::vector<double> windowSec;
    /** Per mix-model index of its last populated window. */
    std::vector<int> lastWindow;
    /** Total back-to-back makespan of one replay, in seconds. */
    double makespanSec = 0.0;
};

/** Cache effectiveness counters. */
struct ScheduleCacheStats
{
    long hits = 0;
    long misses = 0;     ///< == number of Scar::run invocations
    long evictions = 0;  ///< LRU entries dropped at capacity

    long lookups() const { return hits + misses; }

    double
    hitRate() const
    {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits) / lookups();
    }
};

/** Cache sizing knobs. */
struct ScheduleCacheOptions
{
    /**
     * Maximum cached schedules; the least-recently-used entry is
     * evicted beyond this. 0 keeps every schedule (the PR 1
     * behavior). Evicted entries stay alive for any executor still
     * holding their shared_ptr.
     */
    std::size_t capacity = 0;
};

/** Key-indexed LRU store of replay views. */
class ScheduleCache
{
  public:
    /** Runs the schedule search for a mix on a cache miss. */
    using ComputeFn = std::function<ScheduleResult(const Scenario&)>;

    explicit ScheduleCache(
        ScheduleCacheOptions options = ScheduleCacheOptions{});

    /**
     * The cached schedule for a key, or nullptr. Touches the LRU
     * order.
     */
    std::shared_ptr<const CachedSchedule> find(const std::string& key);

    /**
     * Non-mutating probe: the cached schedule without touching the
     * LRU order. Routing cost estimation peeks at candidate shards'
     * caches and must not perturb eviction order.
     */
    std::shared_ptr<const CachedSchedule>
    peek(const std::string& key) const;

    /** Inserts a computed schedule, evicting LRU beyond capacity. */
    void insert(const std::string& key,
                std::shared_ptr<const CachedSchedule> schedule);

    /** LRU entries dropped at capacity so far. */
    long evictions() const { return evictions_; }

    /** Number of distinct keys currently cached. */
    std::size_t size() const { return entries_.size(); }

    std::size_t capacity() const { return options_.capacity; }

  private:
    struct Entry
    {
        std::shared_ptr<const CachedSchedule> schedule;
        std::list<std::string>::iterator lruIt;
    };

    void touch(Entry& entry);

    ScheduleCacheOptions options_;
    std::map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< most recently used at the front
    long evictions_ = 0;
};

/**
 * Computes, validates, and replay-views a schedule for a mix: the
 * miss path of the async cache. Only the replay view is kept.
 */
std::shared_ptr<const CachedSchedule>
makeCachedSchedule(const Scenario& mix,
                   const ScheduleCache::ComputeFn& compute);

/**
 * The replay view of a schedule solved for `mix` (exposed for
 * testing). Requires every model of the mix to be placed in some
 * window.
 */
CachedSchedule buildReplayView(const Scenario& mix,
                               const ScheduleResult& result);

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_SCHEDULE_CACHE_H
