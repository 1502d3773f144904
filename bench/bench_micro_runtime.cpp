/**
 * @file
 * google-benchmark microbenchmarks for the discrete-event runtime:
 * host-side event throughput of the fleet engine on a warm schedule
 * cache — the calendar fast-forward, the indexed calendar, and the
 * cluster -> pod -> shard routing are what is being timed, not the
 * solver (every mix is cached after the warmup replay).
 *
 * Gated by scripts/check_bench_regression.py against
 * bench_results/micro_runtime.json.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "micro_bench_main.h"
#include "common/thread_pool.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

using namespace scar;
using namespace scar::runtime;

namespace
{

/**
 * Calibration anchor for scripts/check_bench_regression.py: the frozen
 * tile-search kernel every micro suite anchors on (see
 * bench::frozenWsTileSearch). No hot-path work touches it, so its time
 * tracks machine speed and normalizes the gate across runners.
 */
void
BM_RuntimeCalibrationGemm(benchmark::State& state)
{
    bench::runCalibrationGemm(state);
}
BENCHMARK(BM_RuntimeCalibrationGemm);

/**
 * One saturated fleet replay per iteration, solver cost excluded: a
 * warmup replay populates the shared schedule cache, so the timed
 * replays walk the event loop alone — fast-forwards, calendar
 * updates, BestFit routing over the pod index, commits. The argument
 * is the shard count; the request stream scales with it (constant
 * per-shard load), so items/s is comparable across sizes and a
 * near-flat rate across the 4x fleet growth is the O(log N) routing
 * contract.
 */
void
BM_FleetEngineEvents(benchmark::State& state)
{
    const int shards = static_cast<int>(state.range(0));
    const int requests = 50 * shards;

    std::vector<ServedModel> catalog;
    {
        ServedModel a;
        a.model = zoo::eyeCod(4);
        a.rateRps = 20.0 * shards;
        a.sloSec = 0.5;
        catalog.push_back(std::move(a));
        ServedModel b;
        b.model = zoo::handSP(2);
        b.rateRps = 12.0 * shards;
        b.sloSec = 0.5;
        catalog.push_back(std::move(b));
    }
    const std::vector<Request> trace =
        poissonTrace(catalog, requests, /*seed=*/11);

    ThreadPool pool(1);
    FleetOptions options;
    options.shards = shards;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &pool;
    options.serving.modeledSolveSec = 0.0;
    FleetSimulator fleet(catalog, templates::hetSides3x3(templates::kArvrPes),
                         options);
    fleet.run(trace); // warm the schedule cache

    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_FleetEngineEvents)->Arg(4)->Arg(16);

/**
 * The LLM counterpart of BM_FleetEngineEvents: continuous-batching
 * chat traffic on a warm cache, so the timed loop covers the decode
 * queue, the join/release bound terms, and per-sequence
 * retirement on top of the plain event machinery.
 */
void
BM_FleetEngineEventsLlm(benchmark::State& state)
{
    const int shards = static_cast<int>(state.range(0));
    const int requests = 25 * shards;

    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    std::vector<ServedModel> catalog(1);
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = 8;
    catalog[0].rateRps = 30.0 * shards;
    catalog[0].sloSec = 2.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 32;
    catalog[0].llm.meanOutputTokens = 24.0;
    catalog[0].llm.maxOutputTokens = 96;
    catalog[0].llm.maxPromptTokens = 128;
    const std::vector<Request> trace =
        llmPoissonTrace(catalog, requests, /*seed=*/11);

    ThreadPool pool(1);
    FleetOptions options;
    options.shards = shards;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &pool;
    options.serving.modeledSolveSec = 0.0;
    options.serving.admission.llmBatching =
        LlmBatchingMode::Continuous;
    FleetSimulator fleet(catalog, templates::hetSides3x3(templates::kArvrPes),
                         options);
    fleet.run(trace); // warm the schedule cache

    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_FleetEngineEventsLlm)->Arg(4);

/**
 * A deep saturated fleet: one model at a large batch cap, so
 * dispatches carry many requests and every shard replays long
 * multi-window schedules whose boundary ticks outnumber arrivals.
 * Each fast-forward crosses the window boundaries queued before the
 * next arrival, which always ends it. The name is historical (the
 * batched commits it once timed are gone) and stays because the
 * regression gate keys on it.
 */
void
BM_FleetEngineCommitBatched(benchmark::State& state)
{
    const int shards = 8;
    const int requests = 600;

    // One model, huge batch cap: dispatches carry many requests, so
    // replays are long and boundary ticks dominate arrivals.
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(8);
    catalog[0].rateRps = 160.0 * shards;
    catalog[0].sloSec = 5.0;
    const std::vector<Request> trace =
        poissonTrace(catalog, requests, /*seed=*/13);

    ThreadPool pool(1);
    FleetOptions options;
    options.shards = shards;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &pool;
    options.serving.modeledSolveSec = 0.0;
    options.serving.admission.maxQueueDelaySec = 0.05;
    FleetSimulator fleet(catalog, templates::hetSides3x3(templates::kArvrPes),
                         options);
    fleet.run(trace); // warm the schedule cache

    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_FleetEngineCommitBatched);

/**
 * The preemptive path on a warm cache, which the benches above never
 * reach: frame-deadline traffic with boundary preemption and
 * speculative solves on (modeledSolveSec > 0). Urgent dispatches
 * route through the pod index plus the idle shards owing a resume,
 * and every event with a ready batch but no free shard runs the
 * speculation-target check: one schedule-cache probe per pod, and a
 * scan pricing every shard only when some pod lacks the schedule
 * (on this warm cache none does). The argument
 * is the shard count (identical shards: a single pod); the stream
 * scales with it, and the regime is sustained (SLO miss ~0).
 */
void
BM_FleetEnginePreempt(benchmark::State& state)
{
    const int shards = static_cast<int>(state.range(0));
    const int requests = 50 * shards;

    std::vector<ServedModel> catalog;
    {
        ServedModel a;
        a.model = zoo::eyeCod(4);
        a.rateRps = 60.0 * shards;
        a.sloSec = 0.04;
        catalog.push_back(std::move(a));
        ServedModel b;
        b.model = zoo::handSP(2);
        b.rateRps = 18.0 * shards;
        b.sloSec = 1.0;
        catalog.push_back(std::move(b));
    }
    const std::vector<Request> trace =
        poissonTrace(catalog, requests, /*seed=*/11);

    ThreadPool pool(1);
    FleetOptions options;
    options.shards = shards;
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &pool;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.01;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.02;
    FleetSimulator fleet(catalog, templates::hetSides3x3(templates::kArvrPes),
                         options);
    // Warm until a replay needs no solve: speculative solves can
    // discover new (urgent) mixes on the first passes.
    for (int warm = 0; warm < 5; ++warm)
        if (fleet.run(trace).cache.misses == 0)
            break;

    long preemptions = 0;
    for (auto _ : state) {
        const ServingReport report = fleet.run(trace);
        preemptions = report.preemptions;
        benchmark::DoNotOptimize(report);
    }
    state.counters["preemptions"] = static_cast<double>(preemptions);
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_FleetEnginePreempt)->Arg(32);

} // namespace

int
main(int argc, char** argv)
{
    return scar::bench::runMicroBench("micro_runtime", argc, argv);
}
