/**
 * @file
 * Online serving simulator: the top-level runtime loop that turns the
 * offline Scar facade into a streaming backend.
 *
 * Since the fleet refactor this is a thin facade over FleetSimulator
 * with a single shard: one admission controller, one replay executor,
 * and an asynchronous schedule cache whose misses solve on the worker
 * pool instead of blocking the event loop (runtime/fleet.h documents
 * the loop; runtime/async_schedule_cache.h the virtual/wall clock
 * split). With the default options — no modeled solve latency, no
 * switch overhead, unbounded cache — the virtual-time behavior is
 * exactly the original blocking simulator's.
 *
 * Request-level boundary preemption is available through
 * ServingOptions::preemption: with it enabled, a queued request whose
 * slack shrinks to the threshold suspends the in-flight replay at its
 * next window boundary, runs as an urgent dispatch, and the suspended
 * replay resumes from its saved cursor (runtime/executor.h). The
 * default — disabled — reproduces the non-preemptive runtime
 * bit-for-bit.
 *
 * For multiple packages, heterogeneous per-shard templates, or
 * routing policies (including the cost-aware BestFit), use
 * FleetSimulator directly.
 */

#ifndef SCAR_RUNTIME_SERVING_SIM_H
#define SCAR_RUNTIME_SERVING_SIM_H

#include <vector>

#include "arch/mcm.h"
#include "runtime/fleet.h"

namespace scar
{
namespace runtime
{

/** Simulates serving a request stream on one MCM. */
class ServingSimulator
{
  public:
    /**
     * @param catalog the served models (traffic profile + SLOs); each
     *        model's batch is the maximum dispatched batch size
     * @param mcm the accelerator; copied, shared by every schedule
     * @param options scheduler + batching + async-solve knobs
     */
    ServingSimulator(std::vector<ServedModel> catalog, Mcm mcm,
                     ServingOptions options = ServingOptions{});

    /**
     * Serves one request trace to completion (every request admitted
     * and executed) and returns the aggregate report. The schedule
     * cache persists across run() calls, so a second run over the
     * same traffic pattern is served entirely from cache; the
     * returned report's cache counters cover this run only.
     */
    ServingReport run(const std::vector<Request>& trace);

    /** Per-request completion records of the most recent run. */
    const std::vector<Request>& records() const
    {
        return fleet_.records();
    }

    /** The (persistent) schedule cache. */
    const AsyncScheduleCache& cache() const { return fleet_.cache(); }

    const std::vector<ServedModel>& catalog() const
    {
        return fleet_.catalog();
    }
    const Mcm& mcm() const { return fleet_.mcm(); }

  private:
    static FleetOptions singleShard(ServingOptions options);

    FleetSimulator fleet_;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_SERVING_SIM_H
