/**
 * @file
 * Planet-scale cluster sweep: one serving fleet of hundreds of MCM
 * shards replaying a Poisson stream of ~a million requests, swept
 * over fleet sizes (the hierarchical cluster -> pod -> shard routing
 * index, O(log N) candidates per dispatch).
 *
 * Two claims are measured:
 *  - Engine scaling: wall time per request as the shard count grows
 *    at a fixed saturating load per shard — the whole event loop's
 *    host cost (routing, calendar, replay bookkeeping, commits), not
 *    routing alone. A near-flat column says that per-request cost
 *    does not grow with the fleet; it cannot single out the router,
 *    whose share is small at these sizes (an O(N) shard scan at 512
 *    shards measured within noise of the pod index).
 *  - Determinism: the full-size replay runs on a 1-thread and an
 *    8-thread solver pool and renders its full ServingReport to
 *    bench_results/cluster_scaling_report_{serial,parallel}.txt; the
 *    bench exits nonzero if the two differ by a byte, and CI cmp's
 *    the dumps again.
 *
 * Scale knobs (CI shrinks both): SCAR_BENCH_REQUESTS (default 1M
 * for the AR/VR mode) and SCAR_BENCH_SHARDS (default 512). The
 * full-size sweep (SCAR_BENCH_SHARDS=1024
 * SCAR_BENCH_REQUESTS=2000000) replays two million requests on a
 * thousand shards in minutes.
 *
 * SCAR_BENCH_CLUSTER_MODE selects the workload the sweep replays:
 *  - "arvr" (default): the 8-model AR/VR catalog above.
 *  - "llm": a continuous-batching chat catalog (llmPoissonTrace) —
 *    the fast-forward's join/release bound terms on the hot path.
 *  - "preempt": the AR/VR catalog with tight SLOs and boundary
 *    preemption on — the urgency bound term on the hot path.
 * Non-default modes suffix the CSV and the report dumps (e.g.
 * cluster_scaling_llm.csv, cluster_scaling_report_llm_serial.txt)
 * so one build can emit all three series side by side.
 *
 * Raw series: bench_results/cluster_scaling*.csv (columns documented
 * in bench/README.md).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "eval/reporter.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace
{

using namespace scar;
using namespace scar::runtime;
using Clock = std::chrono::steady_clock;

/** Eight small AR/VR-class models (hetSides3x3 has nine chiplets, so
 *  the full mix still places). Base rates total ~30 rps — slightly
 *  above one shard's ~28 rps service ceiling for this mix, so every
 *  shard stays busy without the backlog diverging; the sweep
 *  multiplies them by the shard count. */
std::vector<ServedModel>
baseCatalog()
{
    struct Entry
    {
        Model model;
        double rateRps;
        double sloSec;
    };
    const std::vector<Entry> entries = {
        {zoo::eyeCod(8), 10.0, 0.5},   {zoo::handSP(4), 6.0, 0.5},
        {zoo::sp2Dense(4), 4.5, 0.5},  {zoo::emformer(2), 2.5, 1.0},
        {zoo::hrvit(2), 1.5, 1.0},     {zoo::googleNet(4), 4.0, 1.0},
        {zoo::midas(1), 0.75, 2.0},    {zoo::d2go(1), 0.75, 2.0}};
    std::vector<ServedModel> catalog;
    for (const Entry& e : entries) {
        ServedModel sm;
        sm.model = e.model;
        sm.rateRps = e.rateRps;
        sm.sloSec = e.sloSec;
        catalog.push_back(std::move(sm));
    }
    return catalog;
}

/** Chat-style continuous-batching catalog for the "llm" mode: one
 *  small decoder whose per-request cost is a prefill plus a handful
 *  of decode rounds, so the join/release bound terms sit on
 *  the hot path of every shard. */
std::vector<ServedModel>
llmBaseCatalog()
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    std::vector<ServedModel> catalog(1);
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = 8;
    catalog[0].rateRps = 30.0;
    catalog[0].sloSec = 2.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 32;
    catalog[0].llm.meanOutputTokens = 24.0;
    catalog[0].llm.maxOutputTokens = 96;
    catalog[0].llm.maxPromptTokens = 128;
    return catalog;
}

/** Workload variant selected by SCAR_BENCH_CLUSTER_MODE. */
struct ClusterMode
{
    std::string name = "arvr";
    bool llm = false;
    bool preempt = false;

    /** "" for the default mode, "_llm" / "_preempt" otherwise, so
     *  the default artifacts keep their established paths. */
    std::string suffix() const
    {
        return name == "arvr" ? std::string() : "_" + name;
    }
};

std::vector<ServedModel>
scaledCatalog(const ClusterMode& mode, double rateScale)
{
    std::vector<ServedModel> catalog =
        mode.llm ? llmBaseCatalog() : baseCatalog();
    for (ServedModel& sm : catalog) {
        sm.rateRps *= rateScale;
        // Tight SLOs put the urgency crossing ahead of replay ends
        // so the preempt sweep actually preempts.
        if (mode.preempt)
            sm.sloSec *= 0.2;
    }
    return catalog;
}

std::vector<Request>
modeTrace(const ClusterMode& mode,
          const std::vector<ServedModel>& catalog, int requests)
{
    return mode.llm ? llmPoissonTrace(catalog, requests, /*seed=*/7)
                    : poissonTrace(catalog, requests, /*seed=*/7);
}

struct CellResult
{
    ServingReport report;
    double wallMs = 0.0;
    std::string rendered;
};

CellResult
runCell(const ClusterMode& mode,
        const std::vector<ServedModel>& catalog,
        const std::vector<Request>& trace, int shards,
        ThreadPool& solverPool)
{
    FleetOptions options;
    options.shards = shards;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &solverPool;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.02;
    if (mode.llm)
        options.serving.admission.llmBatching =
            LlmBatchingMode::Continuous;
    if (mode.preempt) {
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = 0.02;
    }
    FleetSimulator fleet(catalog, templates::hetSides3x3(templates::kArvrPes),
                         options);

    CellResult cell;
    const auto t0 = Clock::now();
    cell.report = fleet.run(trace);
    cell.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    cell.rendered = describeServingReport(cell.report);
    return cell;
}

bool
writeText(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
main()
{
    ClusterMode mode;
    mode.name = bench::envStr("SCAR_BENCH_CLUSTER_MODE", "arvr");
    mode.llm = mode.name == "llm";
    mode.preempt = mode.name == "preempt";
    if (!mode.llm && !mode.preempt && mode.name != "arvr") {
        std::cerr << "unknown SCAR_BENCH_CLUSTER_MODE '" << mode.name
                  << "' (expected arvr | llm | preempt)\n";
        return 1;
    }
    // LLM requests cost a prefill plus several decode rounds each, so
    // the default stream is an order of magnitude shorter.
    const int kRequests = bench::envInt(
        "SCAR_BENCH_REQUESTS", mode.llm ? 100000 : 1000000);
    const int kShards =
        bench::envInt("SCAR_BENCH_SHARDS", mode.llm ? 64 : 512);

    ThreadPool serialPool(1);
    ThreadPool widePool(8);

    TextTable table({"Shards", "Requests", "Wall (ms)",
                     "Wall/req (us)", "Events/s", "Virt req/s",
                     "p99 (s)", "Solves"});
    CsvWriter csv(bench::csvPath("cluster_scaling" + mode.suffix()),
                  {"shards", "requests", "wall_ms", "wall_us_per_req",
                   "events_per_s", "virt_throughput_rps", "p99_s",
                   "slo_miss_rate", "searches", "contested_routes",
                   "cost_optimal_routes"});

    // ---- shard sweep --------------------------------------------
    // Constant load per shard: the stream grows with the fleet, so a
    // flat wall-per-request column means the engine's per-request
    // host cost does not grow with the fleet size.
    std::string parallelReport; // the full-size row, when swept
    for (int shards = std::max(kShards / 8, 8); shards <= kShards;
         shards *= 2) {
        const int requests =
            static_cast<int>(static_cast<long>(kRequests) * shards /
                             kShards);
        const auto cat =
            scaledCatalog(mode, static_cast<double>(shards));
        const auto tr = modeTrace(mode, cat, requests);
        const CellResult cell =
            runCell(mode, cat, tr, shards, widePool);
        if (shards == kShards)
            parallelReport = cell.rendered;
        // Committed boundary ticks are not exported; completed
        // requests + dispatches + arrivals is the event-count proxy
        // every cell shares, so the columns compare fairly.
        const double events = static_cast<double>(requests) +
                              cell.report.completed +
                              cell.report.dispatches;
        const double eventsPerS = events / (cell.wallMs / 1000.0);
        const double wallUsPerReq = cell.wallMs * 1000.0 / requests;
        table.addRow({std::to_string(shards), std::to_string(requests),
                      TextTable::num(cell.wallMs, 0),
                      TextTable::num(wallUsPerReq, 1),
                      TextTable::num(eventsPerS, 0),
                      TextTable::num(cell.report.throughputRps, 0),
                      TextTable::num(cell.report.p99LatencySec, 3),
                      std::to_string(cell.report.cache.misses)});
        csv.addRow({std::to_string(shards), std::to_string(requests),
                    TextTable::num(cell.wallMs, 3),
                    TextTable::num(wallUsPerReq, 3),
                    TextTable::num(eventsPerS, 1),
                    TextTable::num(cell.report.throughputRps, 3),
                    TextTable::num(cell.report.p99LatencySec, 6),
                    TextTable::num(cell.report.sloViolationRate, 6),
                    std::to_string(cell.report.cache.misses),
                    std::to_string(cell.report.contestedRoutes),
                    std::to_string(cell.report.costOptimalRoutes)});
    }

    std::cout << "Cluster scaling sweep (" << mode.name
              << " mode): up to " << kRequests
              << " Poisson requests over up to " << kShards
              << " shards ("
              << (mode.llm ? "continuous-batching chat catalog"
                           : "8-model AR/VR catalog")
              << (mode.preempt ? ", boundary preemption on" : "")
              << ",\nBestFit routing, shared cache, modeled "
                 "solve 0.01 s, switch overhead 0.002 s)\n\n";
    std::cout << table.render();
    std::cout << "\nRows scale the stream with the fleet; a flat "
                 "Wall/req column = per-request engine cost\n"
                 "independent of the fleet size.\n";
    std::cout << "\nCSV: "
              << bench::csvPath("cluster_scaling" + mode.suffix())
              << "\n";

    // ---- determinism gate ----------------------------------------
    // The full-size replay on 1 vs 8 solver threads: solve speed
    // must never reach the virtual clock. csvPath() above already
    // created bench_results/.
    const auto catalog =
        scaledCatalog(mode, static_cast<double>(kShards));
    const std::vector<Request> trace =
        modeTrace(mode, catalog, kRequests);
    const std::string serialReport =
        runCell(mode, catalog, trace, kShards, serialPool).rendered;
    if (parallelReport.empty())
        parallelReport =
            runCell(mode, catalog, trace, kShards, widePool).rendered;
    const std::string serialPath =
        "bench_results/cluster_scaling_report" + mode.suffix() +
        "_serial.txt";
    const std::string parallelPath =
        "bench_results/cluster_scaling_report" + mode.suffix() +
        "_parallel.txt";
    if (!writeText(serialPath, serialReport) ||
        !writeText(parallelPath, parallelReport)) {
        std::cerr << "FAILED to write report dumps\n";
        return 1;
    }
    if (serialReport != parallelReport) {
        std::cerr << "DETERMINISM VIOLATION: 1- and 8-solver-thread "
                     "reports differ (see "
                  << serialPath << " vs " << parallelPath << ")\n";
        return 1;
    }
    std::cout << "\nDeterminism: 1- and 8-solver-thread reports are "
                 "byte-identical (" << serialPath << ")\n";
    return 0;
}
