/**
 * @file
 * FlightRecorder: the one handle the runtime carries for all
 * observability — a trace recorder, a metrics registry, and a
 * virtual-time sampler, written out together.
 *
 * Enabling is explicit: construct a recorder and hand its pointer to
 * FleetOptions::recorder (or call fromEnv() to honor SCAR_TRACE).
 * A null pointer is the disabled state; every hook in the runtime is
 * guarded by that null check, so a disabled run does no observability
 * work at all and stays byte-identical to an uninstrumented build
 * (golden determinism contract, docs/ARCHITECTURE.md).
 *
 * One recorder records one run: the fleet resets the sampler and
 * restarts the trace clock at virtual t = 0 on run().
 */

#ifndef SCAR_OBS_FLIGHT_RECORDER_H
#define SCAR_OBS_FLIGHT_RECORDER_H

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scar
{
namespace obs
{

/** Output and sampling configuration of a FlightRecorder. */
struct FlightRecorderOptions
{
    /** Directory writeAll() creates and writes into. */
    std::string outDir = "obs";
    /** Virtual-time sampling interval for the time series. */
    double sampleIntervalSec = 0.05;
};

/** Bundled trace + metrics + sampler with file export. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(
        FlightRecorderOptions options = FlightRecorderOptions{});

    /**
     * Environment-driven construction: returns a recorder when
     * SCAR_TRACE is set to anything but "" or "0", else nullptr.
     * SCAR_TRACE_DIR overrides the output directory and
     * SCAR_TRACE_SAMPLE_SEC the sampling interval.
     */
    static std::unique_ptr<FlightRecorder> fromEnv();

    TraceRecorder& trace() { return trace_; }
    const TraceRecorder& trace() const { return trace_; }
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }
    TimeSeriesSampler& samples() { return samples_; }
    const TimeSeriesSampler& samples() const { return samples_; }

    const FlightRecorderOptions& options() const { return options_; }

    /**
     * Creates options().outDir and writes trace.json, metrics.json,
     * metrics.csv, and samples.csv into it.
     * @return false if the directory or any file could not be written
     */
    bool writeAll() const;

  private:
    FlightRecorderOptions options_;
    TraceRecorder trace_;
    MetricsRegistry metrics_;
    TimeSeriesSampler samples_;
};

} // namespace obs
} // namespace scar

#endif // SCAR_OBS_FLIGHT_RECORDER_H
