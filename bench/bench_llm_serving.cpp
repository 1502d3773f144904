/**
 * @file
 * LLM autoregressive serving: continuous batching vs the static
 * batch-and-replay baseline on chat-style traffic.
 *
 * One decoder family is served as prefill + decode-step variants
 * (workload/transformer_builder.h): Poisson arrivals carry a prompt
 * length and a geometric (long-tail) output length, so a few requests
 * decode far past the batch median. Static mode locks each decode
 * batch until its longest member finishes — short sequences ride as
 * padding and fresh arrivals wait out whole batch lifetimes. The
 * continuous mode retires sequences at their own final round and
 * joins waiters into the running stream at step-aligned window
 * boundaries, which is exactly where the long-tail traffic's p99 and
 * SLO misses come from.
 *
 * Output: one table/CSV row per (mode, load) cell — TTFT, TPOT,
 * end-to-end latency percentiles, SLO misses, decode rounds, joins,
 * decode-batch fill, generated tokens/s.
 *
 * Gates (nonzero exit on failure, CI runs this at reduced scale):
 *  - quality: at the highest load, Continuous must beat Static on
 *    p99 end-to-end latency or SLO miss rate;
 *  - determinism: the continuous run on a 1-thread and an 8-thread
 *    solver pool must render byte-identical reports (dumped to
 *    bench_results/llm_serving_report_*.txt and cmp'd again by CI).
 *
 * Scale knob: SCAR_BENCH_REQUESTS (default 600 chat requests).
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
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "workload/transformer_builder.h"

namespace
{

using namespace scar;
using namespace scar::runtime;
using Clock = std::chrono::steady_clock;

/** Chat decoder: 4 coarse blocks, d = 256 — big enough that decode
 *  steps cost visible virtual time, small enough to solve fast. */
TransformerConfig
chatDecoder()
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 4;
    cfg.dModel = 256;
    cfg.dFf = 1024;
    cfg.vocab = 0;
    return cfg;
}

std::vector<ServedModel>
chatCatalog(double rateRps)
{
    std::vector<ServedModel> catalog(1);
    const TransformerConfig cfg = chatDecoder();
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = 8;
    catalog[0].rateRps = rateRps;
    catalog[0].sloSec = 2.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 16;
    catalog[0].llm.meanPromptTokens = 96;
    catalog[0].llm.maxPromptTokens = 256;
    catalog[0].llm.meanOutputTokens = 48.0;
    catalog[0].llm.maxOutputTokens = 384;
    return catalog;
}

struct CellResult
{
    ServingReport report;
    double wallMs = 0.0;
    std::string rendered;
};

CellResult
runCell(const std::vector<ServedModel>& catalog,
        const std::vector<Request>& trace, LlmBatchingMode mode,
        ThreadPool& pool)
{
    FleetOptions options;
    options.shards = 2;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &pool;
    options.serving.modeledSolveSec = 0.002;
    options.serving.switchOverheadSec = 0.0005;
    options.serving.admission.maxQueueDelaySec = 0.01;
    options.serving.admission.llmBatching = mode;
    FleetSimulator fleet(
        catalog, templates::hetSides3x3(templates::kArvrPes),
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
    const int kRequests = bench::envInt("SCAR_BENCH_REQUESTS", 600);

    ThreadPool pool(0); // solver workers, default concurrency

    TextTable table({"Mode", "Rate", "TTFT p99 (s)", "TPOT (s)",
                     "p50 (s)", "p99 (s)", "SLO miss", "Rounds",
                     "Joins", "Batch fill", "Tok/s", "Wall (ms)"});
    CsvWriter csv(bench::csvPath("llm_serving"),
                  {"mode", "rate_rps", "requests", "wall_ms",
                   "ttft_mean_s", "ttft_p99_s", "tpot_mean_s",
                   "p50_s", "p99_s", "slo_miss_rate",
                   "decode_rounds", "joins", "mean_decode_batch",
                   "gen_tokens_per_s", "searches"});

    auto addRow = [&](const char* mode, double rate,
                      const CellResult& cell) {
        const ServingReport& r = cell.report;
        table.addRow(
            {mode, TextTable::num(rate, 0),
             TextTable::num(r.p99TtftSec, 4),
             TextTable::num(r.meanTpotSec, 5),
             TextTable::num(r.p50LatencySec, 3),
             TextTable::num(r.p99LatencySec, 3),
             TextTable::num(r.sloViolationRate * 100.0, 1) + "%",
             std::to_string(r.llmDecodeRounds),
             std::to_string(r.llmJoins),
             TextTable::num(r.llmMeanDecodeBatch, 2),
             TextTable::num(r.genTokensPerSec, 0),
             TextTable::num(cell.wallMs, 0)});
        csv.addRow({mode, TextTable::num(rate, 2),
                    std::to_string(r.offered),
                    TextTable::num(cell.wallMs, 3),
                    TextTable::num(r.meanTtftSec, 6),
                    TextTable::num(r.p99TtftSec, 6),
                    TextTable::num(r.meanTpotSec, 6),
                    TextTable::num(r.p50LatencySec, 6),
                    TextTable::num(r.p99LatencySec, 6),
                    TextTable::num(r.sloViolationRate, 6),
                    std::to_string(r.llmDecodeRounds),
                    std::to_string(r.llmJoins),
                    TextTable::num(r.llmMeanDecodeBatch, 4),
                    TextTable::num(r.genTokensPerSec, 3),
                    std::to_string(r.cache.misses)});
    };

    // ---- load sweep: Static vs Continuous at equal traffic -------
    const std::vector<double> rates = {20.0, 40.0};
    CellResult contHigh;
    CellResult statHigh;
    for (const double rate : rates) {
        const auto catalog = chatCatalog(rate);
        const auto trace =
            llmPoissonTrace(catalog, kRequests, /*seed=*/11);
        const CellResult stat =
            runCell(catalog, trace, LlmBatchingMode::Static, pool);
        const CellResult cont = runCell(
            catalog, trace, LlmBatchingMode::Continuous, pool);
        addRow("static", rate, stat);
        addRow("continuous", rate, cont);
        if (rate == rates.back()) {
            statHigh = stat;
            contHigh = cont;
        }
    }

    std::cout << "LLM serving: " << kRequests
              << " chat requests (geometric output lengths, mean 48,"
                 " cap 384)\nagainst a 4-block d=256 decoder on 2"
                 " shards; static batch-and-replay vs\ncontinuous"
                 " batching at equal load.\n\n";
    std::cout << table.render();
    std::cout << "\nCSV: " << bench::csvPath("llm_serving") << "\n";

    // ---- quality gate --------------------------------------------
    const bool beatsP99 =
        contHigh.report.p99LatencySec < statHigh.report.p99LatencySec;
    const bool beatsSlo = contHigh.report.sloViolationRate <
                          statHigh.report.sloViolationRate;
    if (!beatsP99 && !beatsSlo) {
        std::cerr << "QUALITY GATE FAILED: continuous batching beat "
                     "static on neither p99 ("
                  << contHigh.report.p99LatencySec << " vs "
                  << statHigh.report.p99LatencySec
                  << ") nor SLO miss rate ("
                  << contHigh.report.sloViolationRate << " vs "
                  << statHigh.report.sloViolationRate << ")\n";
        return 1;
    }
    std::cout << "\nQuality: continuous beats static at "
              << rates.back() << " rps ("
              << (beatsP99 ? "p99" : "SLO miss rate") << ")\n";

    // ---- determinism gate ----------------------------------------
    // The continuous path re-routes at every join cut, so it is the
    // run worth pinning across solver thread counts.
    const auto catalog = chatCatalog(rates.back());
    const auto trace =
        llmPoissonTrace(catalog, kRequests, /*seed=*/11);
    ThreadPool serialPool(1);
    ThreadPool widePool(8);
    const CellResult serial = runCell(
        catalog, trace, LlmBatchingMode::Continuous, serialPool);
    const CellResult parallel = runCell(
        catalog, trace, LlmBatchingMode::Continuous, widePool);
    const std::string serialPath =
        "bench_results/llm_serving_report_serial.txt";
    const std::string parallelPath =
        "bench_results/llm_serving_report_parallel.txt";
    if (!writeText(serialPath, serial.rendered) ||
        !writeText(parallelPath, parallel.rendered)) {
        std::cerr << "FAILED to write report dumps\n";
        return 1;
    }
    if (serial.rendered != parallel.rendered) {
        std::cerr << "DETERMINISM VIOLATION: serial and 8-thread "
                     "reports differ (see "
                  << serialPath << " vs " << parallelPath << ")\n";
        return 1;
    }
    std::cout << "Determinism: 1-thread and 8-thread reports are "
                 "byte-identical (" << serialPath << ")\n";
    return 0;
}
