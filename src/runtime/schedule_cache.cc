#include "runtime/schedule_cache.h"

#include "common/error.h"
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
makeCachedSchedule(const Scenario& mix, const ComputeFn& compute)
{
    const ScheduleResult result = compute(mix);
    SCAR_REQUIRE(!result.windows.empty(),
                 "schedule cache: compute returned an empty schedule ",
                 "for mix ", mix.signature());
    return std::make_shared<const CachedSchedule>(
        buildReplayView(mix, result));
}

} // namespace runtime
} // namespace scar
