/**
 * @file
 * Serving-load sweep: the online runtime under increasing traffic.
 *
 * Serves Poisson streams of the Table III Sc4 datacenter models on
 * Het-Sides 3x3 at several load multiples of a base traffic profile
 * and reports, per load point: achieved throughput, p50/p95/p99
 * latency, SLO violation rate, and schedule-cache effectiveness. The
 * sweep shows the saturation behavior the offline paper tables cannot:
 * latency percentiles and SLO misses explode past the package's
 * service ceiling while the schedule cache keeps the search cost flat.
 *
 * The sweep charges no modeled solve latency, so a cache miss costs
 * only host wall time, spent in Scar::run(). The bench therefore
 * measures it directly: a cold-solve probe (the full Sc4 mix, the
 * heaviest mix the sweep solves) before the sweep, and a per-point
 * wall_ms column showing the search cost the schedule cache
 * amortizes away.
 *
 * Raw series: bench_results/runtime_serving.csv.
 */

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "eval/reporter.h"
#include "runtime/fleet.h"

namespace
{

double
wallMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    using namespace scar;
    using namespace scar::runtime;

    const Scenario sc4 = suite::datacenterScenario(4);
    const std::vector<double> baseRatesRps = {12.0, 36.0, 1.5, 48.0};
    const std::vector<double> slosSec = {2.5, 1.5, 2.0, 1.0};
    const std::vector<double> loads = {0.25, 0.5, 1.0, 1.5, 2.0};
    const int kRequests = bench::envInt("SCAR_BENCH_REQUESTS", 4000);

    // Cold-solve probe: the end-to-end latency of one schedule solve
    // (what a shard stalls on at every cache miss), median-of-3.
    double coldSolveMs = 0.0;
    {
        std::vector<double> runsMs;
        for (int i = 0; i < 3; ++i) {
            Scar scar(sc4, templates::hetSides3x3(), ScarOptions{});
            const auto start = std::chrono::steady_clock::now();
            const ScheduleResult result = scar.run();
            runsMs.push_back(wallMsSince(start));
            if (result.windows.empty())
                return 1;
        }
        std::sort(runsMs.begin(), runsMs.end());
        coldSolveMs = runsMs[1];
    }

    TextTable table({"Load", "Offered req/s", "Throughput", "p50 (s)",
                     "p95 (s)", "p99 (s)", "SLO miss %", "Searches",
                     "Cache hit %", "Wall ms"});
    CsvWriter csv(bench::csvPath("runtime_serving"),
                  {"load", "offered_rps", "throughput_rps", "p50_s",
                   "p95_s", "p99_s", "slo_miss_rate", "searches",
                   "cache_hit_rate", "wall_ms", "cold_solve_ms"});

    for (const double load : loads) {
        std::vector<ServedModel> catalog;
        double offeredRps = 0.0;
        for (std::size_t m = 0; m < sc4.models.size(); ++m) {
            ServedModel sm;
            sm.model = sc4.models[m];
            sm.rateRps = baseRatesRps[m] * load;
            sm.sloSec = slosSec[m];
            offeredRps += sm.rateRps;
            catalog.push_back(std::move(sm));
        }

        FleetOptions options;
        options.serving.admission.maxQueueDelaySec = 0.1;
        FleetSimulator sim(catalog, templates::hetSides3x3(), options);
        const auto start = std::chrono::steady_clock::now();
        const ServingReport report = sim.run(
            poissonTrace(catalog, kRequests, /*seed=*/7));
        const double wallMs = wallMsSince(start);

        table.addRow({TextTable::num(load, 2),
                      TextTable::num(offeredRps, 1),
                      TextTable::num(report.throughputRps, 1),
                      TextTable::num(report.p50LatencySec, 3),
                      TextTable::num(report.p95LatencySec, 3),
                      TextTable::num(report.p99LatencySec, 3),
                      TextTable::num(report.sloViolationRate * 100.0,
                                     2),
                      std::to_string(report.cache.misses),
                      TextTable::num(report.cache.hitRate() * 100.0,
                                     1),
                      TextTable::num(wallMs, 1)});
        csv.addRow({TextTable::num(load, 2),
                    TextTable::num(offeredRps, 3),
                    TextTable::num(report.throughputRps, 3),
                    TextTable::num(report.p50LatencySec, 6),
                    TextTable::num(report.p95LatencySec, 6),
                    TextTable::num(report.p99LatencySec, 6),
                    TextTable::num(report.sloViolationRate, 6),
                    std::to_string(report.cache.misses),
                    TextTable::num(report.cache.hitRate(), 4),
                    TextTable::num(wallMs, 2),
                    TextTable::num(coldSolveMs, 2)});
    }

    std::cout << "Serving-load sweep: Sc4 datacenter models on "
                 "Het-Sides 3x3 ("
              << kRequests << " requests per point)\n\n";
    std::cout << "Cold solve latency (full Sc4 mix, median of 3): "
              << TextTable::num(coldSolveMs, 1)
              << " ms — what a shard stalls on per cache miss\n\n";
    std::cout << table.render();
    std::cout << "\nCSV: " << bench::csvPath("runtime_serving") << "\n";
    return 0;
}
