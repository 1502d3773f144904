/**
 * @file
 * Fleet scaling sweep: serving throughput of the online runtime
 * across worker-pool threads x MCM shards.
 *
 * Every cell serves the same saturating Table III Sc4 datacenter
 * Poisson stream (~4x one package's service ceiling) on cold caches,
 * charging a modeled 0.25 s schedule-solve latency (the host-side
 * search cost; our lite search takes ~60 ms serially on this mix, the
 * paper-scale EA searches far longer) and a 2 ms weight re-staging
 * overhead on mix switches. Solves overlap in-flight replays
 * (speculative background solves while every shard is busy), and
 * shards multiply the saturated service rate.
 *
 * Two orthogonal effects:
 *  - Shards scale *serving throughput*
 *    (ServingReport::throughputRps, completed per virtual second);
 *    the Speedup column is relative to the 1-thread x 1-shard cell.
 *  - Threads scale *wall time* only: the same virtual result is
 *    produced faster when searches fan out across the pool. Virtual
 *    columns are bit-identical across thread counts — the
 *    determinism contract of the parallel search core.
 *
 * Raw series: bench_results/fleet_scaling.csv (columns documented in
 * bench/README.md).
 */

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "eval/scenario_suite.h"
#include "runtime/fleet.h"

namespace
{

constexpr double kModeledSolveSec = 0.25;
constexpr double kSwitchOverheadSec = 0.002;

} // namespace

int
main()
{
    using namespace scar;
    using namespace scar::runtime;
    using Clock = std::chrono::steady_clock;

    const Scenario sc4 = suite::datacenterScenario(4);
    // ~4x the single-package service ceiling for this mix, so one,
    // two, and four shards all stay saturated.
    const std::vector<double> ratesRps = {84.0, 252.0, 10.5, 336.0};
    const std::vector<double> slosSec = {2.5, 1.5, 2.0, 1.0};
    // Requests per cell; the bench-smoke CI job shrinks this via the
    // environment to keep the sweep to seconds.
    const int kRequests = bench::envInt("SCAR_BENCH_REQUESTS", 2000);

    std::vector<ServedModel> catalog;
    for (std::size_t m = 0; m < sc4.models.size(); ++m) {
        ServedModel sm;
        sm.model = sc4.models[m];
        sm.rateRps = ratesRps[m];
        sm.sloSec = slosSec[m];
        catalog.push_back(std::move(sm));
    }
    const std::vector<Request> trace =
        poissonTrace(catalog, kRequests, /*seed=*/7);

    TextTable table({"Threads", "Shards", "Virt req/s", "Speedup",
                     "Wall (ms)", "p99 (s)", "Searches", "Stall (s)"});
    CsvWriter csv(bench::csvPath("fleet_scaling"),
                  {"threads", "shards", "virt_throughput_rps",
                   "speedup", "wall_ms", "req_per_wall_s", "p99_s",
                   "slo_miss_rate", "searches", "solve_stall_s"});

    double baselineRps = 0.0;
    auto runCell = [&](int threads, int shards) {
        ThreadPool pool(threads);
        FleetOptions options;
        options.shards = shards;
        options.routing = RoutingPolicy::LeastLoaded;
        options.serving.pool = &pool;
        options.serving.admission.maxQueueDelaySec = 0.1;
        options.serving.modeledSolveSec = kModeledSolveSec;
        options.serving.switchOverheadSec = kSwitchOverheadSec;
        FleetSimulator fleet(catalog, templates::hetSides3x3(),
                             options);

        const auto t0 = Clock::now();
        const ServingReport report = fleet.run(trace);
        const double wallMs =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        if (baselineRps == 0.0)
            baselineRps = report.throughputRps;
        const double speedup = report.throughputRps / baselineRps;

        table.addRow({std::to_string(threads),
                      std::to_string(shards),
                      TextTable::num(report.throughputRps, 1),
                      TextTable::num(speedup, 2) + "x",
                      TextTable::num(wallMs, 0),
                      TextTable::num(report.p99LatencySec, 3),
                      std::to_string(report.cache.misses),
                      TextTable::num(report.solveStallSec, 3)});
        csv.addRow({std::to_string(threads),
                    std::to_string(shards),
                    TextTable::num(report.throughputRps, 3),
                    TextTable::num(speedup, 4),
                    TextTable::num(wallMs, 3),
                    TextTable::num(report.completed /
                                       (wallMs / 1000.0),
                                   3),
                    TextTable::num(report.p99LatencySec, 6),
                    TextTable::num(report.sloViolationRate, 6),
                    std::to_string(report.cache.misses),
                    TextTable::num(report.solveStallSec, 6)});
    };

    // The first cell (1 thread, 1 shard) is the Speedup baseline.
    for (const int threads : {1, 2, 4, 8})
        for (const int shards : {1, 2, 4})
            runCell(threads, shards);

    std::cout << "Fleet scaling sweep: Sc4 datacenter stream ("
              << kRequests
              << " requests per cell, cold caches, least-loaded "
                 "routing,\nmodeled solve "
              << kModeledSolveSec << " s, switch overhead "
              << kSwitchOverheadSec << " s)\n\n";
    std::cout << table.render();
    std::cout << "\nSpeedup is relative to the 1-thread x 1-shard "
                 "row. Virtual columns are identical\nacross "
                 "thread counts (determinism contract); wall columns "
                 "scale with host cores ("
              << ThreadPool::defaultConcurrency()
              << "\navailable here).\n";
    std::cout << "\nCSV: " << bench::csvPath("fleet_scaling") << "\n";
    return 0;
}
