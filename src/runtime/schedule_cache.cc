#include "runtime/schedule_cache.h"

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"

namespace scar
{
namespace runtime
{

CachedSchedule
buildReplayView(const Scenario& mix, const ScheduleResult& result)
{
    CachedSchedule view;
    view.lastWindow.assign(mix.numModels(), -1);
    // The per-window durations come from the schedule's stable
    // boundary metadata — the same cut points the boundary preemptor
    // suspends and resumes at.
    for (const WindowBoundary& boundary : windowBoundaries(result)) {
        // windowCycles (not endCycles - startCycles): the replay
        // durations must stay bit-identical to the pre-metadata code,
        // and a difference of cumulative sums is not.
        const double sec = cyclesToSeconds(boundary.windowCycles);
        view.windowSec.push_back(sec);
        view.makespanSec += sec;
        const ScheduledWindow& sw = result.windows[boundary.windowIdx];
        for (const ModelPlacement& mp : sw.placement.models) {
            if (!mp.segments.empty())
                view.lastWindow[mp.modelIdx] = boundary.windowIdx;
        }
    }
    for (int m = 0; m < mix.numModels(); ++m)
        SCAR_REQUIRE(view.lastWindow[m] >= 0,
                     "schedule for mix ", mix.signature(),
                     " never places model ", mix.models[m].name);
    return view;
}

std::shared_ptr<const CachedSchedule>
makeCachedSchedule(const Scenario& mix,
                   const ScheduleCache::ComputeFn& compute)
{
    const ScheduleResult result = compute(mix);
    SCAR_REQUIRE(!result.windows.empty(),
                 "schedule cache: compute returned an empty schedule ",
                 "for mix ", mix.signature());
    return std::make_shared<const CachedSchedule>(
        buildReplayView(mix, result));
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options)
    : options_(options)
{
}

void
ScheduleCache::touch(Entry& entry)
{
    lru_.splice(lru_.begin(), lru_, entry.lruIt);
}

std::shared_ptr<const CachedSchedule>
ScheduleCache::find(const std::string& key)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    touch(it->second);
    return it->second.schedule;
}

void
ScheduleCache::insert(const std::string& key,
                      std::shared_ptr<const CachedSchedule> schedule)
{
    SCAR_REQUIRE(schedule != nullptr,
                 "schedule cache: inserting null schedule for ", key);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second.schedule = std::move(schedule);
        touch(it->second);
        return;
    }
    lru_.push_front(key);
    entries_.emplace(key,
                     Entry{std::move(schedule), lru_.begin()});
    if (options_.capacity > 0 && entries_.size() > options_.capacity) {
        const std::string& victim = lru_.back();
        debug("schedule cache: evicting LRU mix ", victim);
        entries_.erase(victim);
        lru_.pop_back();
        ++evictions_;
    }
}

std::shared_ptr<const CachedSchedule>
ScheduleCache::peek(const std::string& key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.schedule;
}

} // namespace runtime
} // namespace scar
