/**
 * @file
 * Schedule cache entries: the replay view memoized per unique model
 * mix, and the miss path that solves and derives it.
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
 * The store itself is AsyncScheduleCache (runtime/
 * async_schedule_cache.h): it keeps every solved schedule for the
 * simulator's lifetime, solves misses in the background and keeps
 * the hit/miss counters.
 */

#ifndef SCAR_RUNTIME_SCHEDULE_CACHE_H
#define SCAR_RUNTIME_SCHEDULE_CACHE_H

#include <functional>
#include <memory>
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
    long misses = 0; ///< == number of Scar::run invocations

    long lookups() const { return hits + misses; }

    double
    hitRate() const
    {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits) / lookups();
    }
};

/** Runs the schedule search for a mix on a cache miss. */
using ComputeFn = std::function<ScheduleResult(const Scenario&)>;

/**
 * Computes, validates, and replay-views a schedule for a mix: the
 * miss path of the async cache. Only the replay view is kept.
 */
std::shared_ptr<const CachedSchedule>
makeCachedSchedule(const Scenario& mix, const ComputeFn& compute);

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
