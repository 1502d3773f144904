/**
 * @file
 * Outside-in span recorder for the benchmark harness.
 *
 * Spans are recorded by the harness around each call it makes into a
 * libscar layer (workload builders, CostDb construction, Scar::run,
 * the fleet runtime), never inside the library. A disabled recorder
 * makes Scope a no-op apart from one branch, so the untraced passes
 * that produce the end-to-end numbers pay nothing for it.
 *
 * Spans live in memory and are written out once, at exit, as a
 * Chrome trace (chrome://tracing, Perfetto).
 */

#ifndef SCAR_PERFBENCH_SPANS_H
#define SCAR_PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One closed span. `layer` is the text before the first '.' of
 *  `name` ("runtime.fleet.run" -> "runtime"). */
struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0.0; ///< since the recorder's epoch
    double endUs = 0.0;
    int parent = -1;      ///< index into spans(), -1 for a root
};

/** Per-layer aggregate of the recorded spans. */
struct LayerTime
{
    long spans = 0;
    double totalMs = 0.0; ///< summed span durations
    double selfMs = 0.0;  ///< durations minus child-covered time
};

class SpanRecorder
{
  public:
    SpanRecorder(bool enabled, std::string workload);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Opens a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int open(const std::string& name);

    /** Closes the innermost open span, which must be `index`. */
    void close(int index);

    const std::vector<Span>& spans() const { return spans_; }

    /** Summed durations (ms) of the spans with this exact name. */
    double totalMs(const std::string& name) const;

    /** Number of spans with this exact name. */
    long count(const std::string& name) const;

    /** Self time per layer: each span's duration minus the part of
     *  it its direct children cover. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Share of the time of the root spans named `rootName` that
     *  their direct children cover, in [0, 1]; 1 when there are none. */
    double childCoverage(const std::string& rootName) const;

    /** Writes the spans as Chrome-trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    bool enabled_;
    std::string workload_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanRecorder& recorder, const std::string& name)
        : recorder_(recorder),
          index_(recorder.enabled() ? recorder.open(name) : -1)
    {
    }
    ~Scope()
    {
        if (index_ >= 0)
            recorder_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder& recorder_;
    int index_;
};

} // namespace perfbench

#endif // SCAR_PERFBENCH_SPANS_H
