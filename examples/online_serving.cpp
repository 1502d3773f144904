/**
 * @file
 * Online serving example: a 10k-request Poisson stream of datacenter
 * traffic (paper Table III, scenario 4 models) served on the 3x3
 * Het-Sides MCM.
 *
 * Each model gets an arrival rate proportional to its Table III batch
 * size and an MLPerf-server-style latency SLO. The serving runtime
 * batches queued requests, schedules every new model mix once through
 * the SCAR search, replays cached schedules for repeated mixes, and
 * prints the resulting ServingReport: throughput, latency
 * percentiles, SLO violation rate, and schedule-cache effectiveness.
 */

#include <iostream>

#include "arch/mcm_templates.h"
#include "eval/reporter.h"
#include "eval/scenario_suite.h"
#include "runtime/fleet.h"

int
main()
{
    using namespace scar;
    using namespace scar::runtime;

    // The Table III Sc4 datacenter mix: two language models, a
    // segmentation model, and a batched image classifier.
    const Scenario sc4 = suite::datacenterScenario(4);

    // Traffic profile: rates proportional to each model's batch size
    // (aggregate ~150 req/s against a ~230 req/s full-mix ceiling),
    // SLOs in the MLPerf server spirit — looser for the LLM, tighter
    // for the vision models.
    const std::vector<double> ratesRps = {18.0, 55.0, 2.5, 75.0};
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
    std::cout << "\n";

    FleetOptions options;
    options.serving.admission.maxQueueDelaySec = 0.1;
    FleetSimulator sim(catalog, templates::hetSides3x3(), options);

    const int kRequests = 10000;
    const std::vector<Request> trace =
        poissonTrace(catalog, kRequests, /*seed=*/2024);
    std::cout << "Serving " << kRequests
              << " Poisson requests on Het-Sides 3x3...\n\n";

    const ServingReport report = sim.run(trace);
    std::cout << describeServingReport(report) << "\n";

    if (report.cache.hits == 0) {
        std::cerr << "unexpected: schedule cache never hit\n";
        return 1;
    }
    return 0;
}
