#include "runtime/executor.h"

#include <limits>

#include "common/error.h"

namespace scar
{
namespace runtime
{

void
ReplayExecutor::start(std::shared_ptr<const CachedSchedule> schedule,
                      Dispatch dispatch, double startSec)
{
    SCAR_REQUIRE(!busy_, "executor: start while a dispatch is running");
    SCAR_REQUIRE(schedule != nullptr, "executor: start without schedule");
    SCAR_REQUIRE(schedule->mix.models.size() ==
                     dispatch.mix.models.size(),
                 "executor: schedule/dispatch mix arity mismatch");
    SCAR_REQUIRE(!schedule->windowSec.empty(),
                 "executor: schedule has no windows");
    busy_ = true;
    schedule_ = std::move(schedule);
    dispatch_ = std::move(dispatch);
    window_ = 0;
    windowEndSec_ = startSec + schedule_->windowSec.front();
    // Replicate advance()'s rounding sequence exactly: the final
    // boundary must equal the windowEndSec_ the last advance() will
    // report, bit for bit.
    finalBoundarySec_ = windowEndSec_;
    for (std::size_t w = 1; w < schedule_->windowSec.size(); ++w)
        finalBoundarySec_ += schedule_->windowSec[w];
    ++dispatches_;
    for (BatchGroup& group : dispatch_.groups) {
        for (Request& req : group.requests) {
            // Only the first boarding stamps the dispatch instant: an
            // LLM request re-dispatched for later decode rounds keeps
            // its original queue-wait accounting.
            if (req.dispatchSec < 0.0)
                req.dispatchSec = startSec;
        }
    }
}

const Dispatch&
ReplayExecutor::dispatch() const
{
    SCAR_REQUIRE(busy_, "executor: dispatch() while idle");
    return dispatch_;
}

double
ReplayExecutor::nextBoundarySec() const
{
    SCAR_REQUIRE(busy_, "executor: nextBoundarySec while idle");
    return windowEndSec_;
}

double
ReplayExecutor::finalBoundarySec() const
{
    SCAR_REQUIRE(busy_, "executor: finalBoundarySec while idle");
    return finalBoundarySec_;
}

WindowTick
ReplayExecutor::advance()
{
    SCAR_REQUIRE(busy_, "executor: advance while idle");
    WindowTick tick;
    tick.timeSec = windowEndSec_;
    tick.windowIdx = static_cast<int>(window_);

    // A dispatch group's model index within the mix equals its
    // position: formDispatch builds mix.models and groups in lockstep.
    for (std::size_t m = 0; m < dispatch_.groups.size(); ++m) {
        if (schedule_->lastWindow[m] != static_cast<int>(window_))
            continue;
        for (Request req : dispatch_.groups[m].requests) {
            req.completionSec = windowEndSec_;
            tick.completed.push_back(req);
        }
    }

    ++window_;
    if (window_ == schedule_->windowSec.size()) {
        tick.dispatchDone = true;
        busy_ = false;
        schedule_.reset();
    } else {
        windowEndSec_ += schedule_->windowSec[window_];
    }
    return tick;
}

double
ReplayExecutor::boundaryInstantSec(std::size_t j) const
{
    double t = windowEndSec_;
    for (std::size_t w = window_ + 1; w <= j; ++w)
        t += schedule_->windowSec[w];
    return t;
}

double
ReplayExecutor::nextStepBoundarySec(int windowsPerStep) const
{
    SCAR_REQUIRE(busy_, "executor: nextStepBoundarySec while idle");
    SCAR_REQUIRE(windowsPerStep > 0,
                 "executor: non-positive step grid");
    const std::size_t step = static_cast<std::size_t>(windowsPerStep);
    const std::size_t n = schedule_->windowSec.size();
    double t = windowEndSec_;
    // Walk boundary instants forward on advance()'s accumulated
    // clock; the final boundary (w == n - 1) is dispatchDone, not a
    // cut point, so the loop excludes it.
    for (std::size_t w = window_; w + 1 < n; ++w) {
        if ((w + 1) % step == 0)
            return t;
        t += schedule_->windowSec[w + 1];
    }
    return std::numeric_limits<double>::infinity();
}

std::size_t
ReplayExecutor::windowsRemaining() const
{
    SCAR_REQUIRE(busy_, "executor: windowsRemaining while idle");
    return schedule_->windowSec.size() - window_;
}

SuspendedReplay
ReplayExecutor::suspend(bool markPreempted)
{
    SCAR_REQUIRE(busy_, "executor: suspend while idle");
    SuspendedReplay replay;
    replay.window = window_;
    for (std::size_t w = window_; w < schedule_->windowSec.size(); ++w)
        replay.remainingSec += schedule_->windowSec[w];
    // Requests whose model already completed (lastWindow < window_)
    // left through earlier ticks; everything still riding is
    // preempted.
    if (markPreempted) {
        for (std::size_t m = 0; m < dispatch_.groups.size(); ++m) {
            if (schedule_->lastWindow[m] <
                static_cast<int>(window_))
                continue;
            for (Request& req : dispatch_.groups[m].requests)
                req.preempted = true;
        }
    }
    replay.schedule = std::move(schedule_);
    replay.dispatch = std::move(dispatch_);
    busy_ = false;
    window_ = 0;
    windowEndSec_ = 0.0;
    return replay;
}

void
ReplayExecutor::resume(SuspendedReplay replay, double startSec)
{
    SCAR_REQUIRE(!busy_, "executor: resume while a dispatch is running");
    SCAR_REQUIRE(replay.schedule != nullptr,
                 "executor: resume without a suspended schedule");
    SCAR_REQUIRE(replay.window < replay.schedule->windowSec.size(),
                 "executor: resume cursor past the last window");
    busy_ = true;
    schedule_ = std::move(replay.schedule);
    dispatch_ = std::move(replay.dispatch);
    window_ = replay.window;
    windowEndSec_ = startSec + schedule_->windowSec[window_];
    finalBoundarySec_ = windowEndSec_;
    for (std::size_t w = window_ + 1; w < schedule_->windowSec.size();
         ++w)
        finalBoundarySec_ += schedule_->windowSec[w];
}

} // namespace runtime
} // namespace scar
