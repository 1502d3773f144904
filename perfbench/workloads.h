/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * seed alone, sets up (model builds, trace generation, fleet
 * construction, cache warm-up), then runs timed passes that the
 * harness repeats for the measuring window.
 *
 * Output checks are counted per operation (one solve, or one
 * simulated request): a failed operation is one whose output differs
 * from the reference the set-up produced, or that never completed.
 * Regime guards are separate: a workload that drifts out of the
 * regime it exists to measure throws RegimeError.
 */

#ifndef SCAR_PERFBENCH_WORKLOADS_H
#define SCAR_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench
{

/** A workload left the regime it was built to measure. */
struct RegimeError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Output-check tally across the run. */
struct Checks
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> messages; ///< first few failures

    void fail(long operations, const std::string& message);
};

/** One timed pass. */
struct PassResult
{
    double wallSec = 0.0;
    long operations = 0; ///< solves, or completed requests
};

/** Metric values by name; a workload fills the ones it measures. */
using MetricValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** "solves" or "requests": what PassResult::operations counts. */
    virtual const char* operationName() const = 0;

    /** Builds inputs and warms caches; spans go to `rec`. */
    virtual void setup(SpanRecorder& rec) = 0;

    /** One timed pass. Only the libscar calls are inside the timed
     *  region; spans go to `rec` when it is enabled. */
    virtual PassResult pass(SpanRecorder& rec) = 0;

    /**
     * Checks the outputs of the pass just run and re-arms the next
     * one (for instance a fresh fleet for a cold cache). In a traced
     * run this also takes the extra per-layer measurements.
     */
    virtual void afterPass(SpanRecorder& rec, Checks& checks) = 0;

    /** Per-layer metrics from the traced passes. */
    virtual void layerMetrics(const SpanRecorder& rec,
                              MetricValues& out) const = 0;

    /** Human-readable workload-specific end-to-end lines. */
    virtual void describe(std::ostream& out) const = 0;
};

/** Names of every workload scarbench runs. BENCHMARK.json gates two
 *  of them; see README.md for why the other two are not gated. */
const std::vector<std::string>& workloadNames();

/** Builds a workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

/** Median of a sample (0 when empty). */
double median(std::vector<double> sample);

} // namespace perfbench

#endif // SCAR_PERFBENCH_WORKLOADS_H
