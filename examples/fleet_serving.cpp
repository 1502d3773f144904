/**
 * @file
 * Fleet serving example: the Table III Sc4 datacenter traffic served
 * on a fleet of four Het-Sides 3x3 packages with asynchronous
 * schedule solves.
 *
 * Demonstrates the multi-MCM runtime: one admission front-end batches
 * the stream, dispatches route across the shards (compare the three
 * routing policies), schedule misses solve in the background on the
 * worker pool while the shards keep replaying, and the report shows
 * per-shard utilization plus the modeled solve-stall and
 * weight-restaging overheads.
 *
 * Observability knobs (all off by default):
 *  - SCAR_FLEET_REQUESTS=N shrinks/grows the trace (CI uses ~2000)
 *  - SCAR_TRACE=1 adds a preemptive LeastLoaded run recorded by a
 *    flight recorder; trace.json/metrics/samples land in SCAR_TRACE_DIR
 *    (default obs/) for Perfetto and scripts/trace_summary.py
 *  - SCAR_PROFILE=1 appends a profiled standalone SCAR solve of the
 *    Sc4 scenario and prints the per-phase/cache-efficacy summary
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "arch/mcm_templates.h"
#include "eval/reporter.h"
#include "eval/scenario_suite.h"
#include "obs/flight_recorder.h"
#include "runtime/fleet.h"
#include "sched/scar.h"

namespace
{

/** Positive-integer env override with a fallback. */
int
envInt(const char* name, int fallback)
{
    const char* raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    const int value = std::atoi(raw);
    return value > 0 ? value : fallback;
}

/** True when `name` is set to anything but "" or "0". */
bool
envFlag(const char* name)
{
    const char* raw = std::getenv(name);
    return raw && *raw && std::string(raw) != "0";
}

} // namespace

int
main()
{
    using namespace scar;
    using namespace scar::runtime;

    const Scenario sc4 = suite::datacenterScenario(4);

    // Scale the single-package example's traffic to a fleet: ~600
    // req/s offered against four packages whose single-package mix
    // ceiling is ~230 req/s.
    const std::vector<double> ratesRps = {72.0, 220.0, 10.0, 300.0};
    const std::vector<double> slosSec = {2.5, 1.5, 2.0, 1.0};

    std::vector<ServedModel> catalog;
    for (std::size_t m = 0; m < sc4.models.size(); ++m) {
        ServedModel sm;
        sm.model = sc4.models[m];
        sm.rateRps = ratesRps[m];
        sm.sloSec = slosSec[m];
        catalog.push_back(std::move(sm));
    }

    std::cout << "Catalog (" << catalog.size() << " models):\n";
    for (const ServedModel& sm : catalog)
        std::cout << "  " << sm.model.name << ": batch<="
                  << sm.model.batch << ", " << sm.rateRps
                  << " req/s, SLO " << sm.sloSec << " s\n";

    const int kRequests = envInt("SCAR_FLEET_REQUESTS", 20000);
    const std::vector<Request> trace =
        poissonTrace(catalog, kRequests, /*seed=*/2024);

    for (const RoutingPolicy routing :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::MixAffinity}) {
        FleetOptions options;
        options.shards = 4;
        options.routing = routing;
        options.serving.admission.maxQueueDelaySec = 0.1;
        // Model the costs a real controller would pay: schedule
        // searches take host time, and switching a package to a new
        // mix re-stages weights.
        options.serving.modeledSolveSec = 0.02;
        options.serving.switchOverheadSec = 0.002;

        std::cout << "\n=== " << kRequests
                  << " Poisson requests, 4x Het-Sides 3x3, routing: "
                  << routingPolicyName(routing) << " ===\n\n";
        FleetSimulator fleet(catalog, templates::hetSides3x3(),
                             options);
        const ServingReport report = fleet.run(trace);
        std::cout << describeServingReport(report) << "\n";

        if (report.completed != report.offered) {
            std::cerr << "unexpected: fleet dropped requests\n";
            return 1;
        }
    }

    // SCAR_TRACE=1: rerun LeastLoaded with boundary preemption and a
    // flight recorder attached, then export the trace bundle. The
    // trace is a pure function of virtual time, so it is byte-
    // identical at any SCAR_THREADS setting (CI cmp's two runs).
    if (auto rec = obs::FlightRecorder::fromEnv()) {
        FleetOptions options;
        // Two shards instead of four: the ~600 req/s offered load now
        // exceeds the fleet ceiling, so queues build, slack shrinks,
        // and the trace exercises suspend/resume.
        options.shards = 2;
        options.routing = RoutingPolicy::LeastLoaded;
        options.serving.admission.maxQueueDelaySec = 0.1;
        options.serving.modeledSolveSec = 0.02;
        options.serving.switchOverheadSec = 0.002;
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = 0.5;
        options.serving.preemption.resumeOverheadSec = 0.005;
        options.recorder = rec.get();

        std::cout << "\n=== traced run: " << kRequests
                  << " requests, 2 shards, LeastLoaded + preemption"
                  << " ===\n\n";
        FleetSimulator fleet(catalog, templates::hetSides3x3(),
                             options);
        const ServingReport report = fleet.run(trace);
        std::cout << describeServingReport(report) << "\n";
        if (!rec->writeAll()) {
            std::cerr << "failed to write trace bundle to "
                      << rec->options().outDir << "\n";
            return 1;
        }
        std::cout << "trace bundle written to "
                  << rec->options().outDir << "/ ("
                  << rec->trace().size() << " events)\n";
    }

    // SCAR_PROFILE=1: profile one standalone SCAR solve of the same
    // scenario — per-phase wall time plus cache efficacy.
    if (envFlag("SCAR_PROFILE")) {
        obs::SolveProfile profile;
        ScarOptions options;
        options.profile = &profile;
        std::cout << "\n=== profiled solve: " << sc4.name
                  << " on Het-Sides 3x3 ===\n\n";
        Scar scar(sc4, templates::hetSides3x3(), options);
        scar.run();
        std::cout << profile.summary() << "\n";
    }
    return 0;
}
