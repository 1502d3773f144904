#include "runtime/executor.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace scar
{
namespace runtime
{

void
ReplayExecutor::begin(std::shared_ptr<const CachedSchedule> schedule,
                      Dispatch dispatch, std::size_t window,
                      double startSec)
{
    const std::size_t windows =
        schedule->windowSec.size() *
        static_cast<std::size_t>(std::max(1, dispatch.llmDecodeSteps));
    SCAR_REQUIRE(window < windows,
                 "executor: replay cursor past the last window");
    busy_ = true;
    schedule_ = std::move(schedule);
    dispatch_ = std::move(dispatch);
    windows_ = windows;
    window_ = window;
    windowEndSec_ = startSec + windowSec(window_);
    // Replicate advance()'s rounding sequence exactly: the final
    // boundary must equal the windowEndSec_ the last advance() will
    // report, bit for bit.
    finalBoundarySec_ = windowEndSec_;
    for (std::size_t w = window_ + 1; w < windows_; ++w)
        finalBoundarySec_ += windowSec(w);
}

void
ReplayExecutor::start(std::shared_ptr<const CachedSchedule> schedule,
                      Dispatch dispatch, double startSec)
{
    SCAR_REQUIRE(!busy_, "executor: start while a dispatch is running");
    SCAR_REQUIRE(schedule != nullptr, "executor: start without schedule");
    SCAR_REQUIRE(schedule->lastWindow.size() == dispatch.groups.size(),
                 "executor: schedule/dispatch mix arity mismatch");
    SCAR_REQUIRE(!schedule->windowSec.empty(),
                 "executor: schedule has no windows");
    begin(std::move(schedule), std::move(dispatch), 0, startSec);
    makespanSec_ = 0.0;
    for (std::size_t w = 0; w < windows_; ++w)
        makespanSec_ += windowSec(w);
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

double
ReplayExecutor::makespanSec() const
{
    SCAR_REQUIRE(busy_, "executor: makespanSec while idle");
    return makespanSec_;
}

std::size_t
ReplayExecutor::windowsPerStep() const
{
    SCAR_REQUIRE(busy_, "executor: windowsPerStep while idle");
    return schedule_->windowSec.size();
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
        if (lastWindow(m) != window_)
            continue;
        for (Request req : dispatch_.groups[m].requests) {
            req.completionSec = windowEndSec_;
            tick.completed.push_back(req);
        }
    }

    ++window_;
    if (window_ == windows_) {
        // Release the finished dispatch: its mix parts point at
        // variants owned by the admission controller of the run.
        tick.dispatchDone = true;
        busy_ = false;
        schedule_.reset();
        dispatch_ = Dispatch{};
    } else {
        windowEndSec_ += windowSec(window_);
    }
    return tick;
}

double
ReplayExecutor::boundaryInstantSec(std::size_t j) const
{
    double t = windowEndSec_;
    for (std::size_t w = window_ + 1; w <= j; ++w)
        t += windowSec(w);
    return t;
}

double
ReplayExecutor::nextStepBoundarySec() const
{
    SCAR_REQUIRE(busy_, "executor: nextStepBoundarySec while idle");
    const std::size_t step = schedule_->windowSec.size();
    double t = windowEndSec_;
    // Walk boundary instants forward on advance()'s accumulated
    // clock; the final boundary (w == windows_ - 1) is dispatchDone,
    // not a cut point, so the loop excludes it.
    for (std::size_t w = window_; w + 1 < windows_; ++w) {
        if ((w + 1) % step == 0)
            return t;
        t += windowSec(w + 1);
    }
    return std::numeric_limits<double>::infinity();
}

std::size_t
ReplayExecutor::windowsRemaining() const
{
    SCAR_REQUIRE(busy_, "executor: windowsRemaining while idle");
    return windows_ - window_;
}

SuspendedReplay
ReplayExecutor::suspend(bool markPreempted)
{
    SCAR_REQUIRE(busy_, "executor: suspend while idle");
    SuspendedReplay replay;
    replay.window = window_;
    for (std::size_t w = window_; w < windows_; ++w)
        replay.remainingSec += windowSec(w);
    // Requests whose model already completed (lastWindow < window_)
    // left through earlier ticks; everything still riding is
    // preempted.
    if (markPreempted) {
        for (std::size_t m = 0; m < dispatch_.groups.size(); ++m) {
            if (lastWindow(m) < window_)
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
    begin(std::move(replay.schedule), std::move(replay.dispatch),
          replay.window, startSec);
}

} // namespace runtime
} // namespace scar
