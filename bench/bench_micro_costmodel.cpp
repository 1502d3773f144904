/**
 * @file
 * google-benchmark microbenchmarks for the cost-model substrate:
 * MaestroLite layer evaluation, cost-database construction, and
 * window evaluation throughput. These bound the scheduler's search
 * budget (every SCHED candidate costs one window evaluation).
 */

#include <benchmark/benchmark.h>

#include "arch/mcm_templates.h"
#include "micro_bench_main.h"
#include "cost/cost_db.h"
#include "cost/window_evaluator.h"
#include "eval/scenario_suite.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

using namespace scar;

namespace
{

/**
 * Calibration anchor of the window-evaluation gate: the frozen
 * tile-search kernel every micro suite anchors on (see
 * bench::frozenWsTileSearch). BM_MaestroLiteGemm, which anchored this
 * gate before, runs the live tile search and is gated itself.
 */
void
BM_CostModelCalibrationGemm(benchmark::State& state)
{
    bench::runCalibrationGemm(state);
}
BENCHMARK(BM_CostModelCalibrationGemm);

void
BM_MaestroLiteConv(benchmark::State& state)
{
    const MaestroLite model;
    ChipletSpec spec;
    spec.dataflow = state.range(0) == 0 ? Dataflow::NvdlaWS
                                        : Dataflow::ShiOS;
    Layer conv;
    conv.type = OpType::Conv2D;
    conv.dims = LayerDims{256, 128, 3, 3, 56, 56, 1, 1};
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evalLayer(conv, spec));
    }
}
BENCHMARK(BM_MaestroLiteConv)->Arg(0)->Arg(1);

void
BM_MaestroLiteGemm(benchmark::State& state)
{
    const MaestroLite model;
    ChipletSpec spec;
    spec.dataflow = state.range(0) == 0 ? Dataflow::NvdlaWS
                                        : Dataflow::ShiOS;
    const Layer gemm = makeGemmLayer(0, "g", 128, 5120, 1280);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evalLayer(gemm, spec));
    }
}
BENCHMARK(BM_MaestroLiteGemm)->Arg(0)->Arg(1);

/**
 * Cold CostDb construction: each iteration clears the process-wide
 * model-table cache with the timer paused, so every build is a miss.
 */
void
BM_CostDbBuildResNet(benchmark::State& state)
{
    Scenario sc;
    sc.name = "r50";
    sc.models = {zoo::resNet50(1)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    for (auto _ : state) {
        state.PauseTiming();
        CostDb::clearTableCache(); // time the cold build
        state.ResumeTiming();
        CostDb db(sc, mcm);
        benchmark::DoNotOptimize(db.expectedLayerCycles(0, 0));
    }
}
BENCHMARK(BM_CostDbBuildResNet);

void
BM_CostDbBuildScenario4(benchmark::State& state)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetSides3x3();
    for (auto _ : state) {
        state.PauseTiming();
        CostDb::clearTableCache(); // time the cold build
        state.ResumeTiming();
        CostDb db(sc, mcm);
        benchmark::DoNotOptimize(db.expectedLayerCycles(0, 0));
    }
}
BENCHMARK(BM_CostDbBuildScenario4);

void
BM_WindowEvaluate(benchmark::State& state)
{
    Scenario sc;
    sc.name = "pair";
    sc.models = {zoo::resNet50(4), zoo::bertBase(2)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowEvaluator eval(db);

    WindowPlacement placement;
    ModelPlacement a;
    a.modelIdx = 0;
    a.segments = {PlacedSegment{LayerRange{0, 30}, 0},
                  PlacedSegment{LayerRange{31, 71}, 3}};
    ModelPlacement b;
    b.modelIdx = 1;
    b.segments = {PlacedSegment{LayerRange{0, 17}, 2},
                  PlacedSegment{LayerRange{18, 35}, 5}};
    placement.models = {a, b};

    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(placement));
    }
}
BENCHMARK(BM_WindowEvaluate);

/**
 * Contention-free pricing of one path through a warm SoloPricer: the
 * beam search's per-path score (thousands of calls per window
 * search). Every term comes from the pricer's table, so this times
 * the path checks and the pipelining fold.
 */
void
BM_SoloPricer(benchmark::State& state)
{
    Scenario sc;
    sc.name = "solo";
    sc.models = {zoo::resNet50(4)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    EvaluatorOptions options;
    options.contention = false;
    options.dramRoofline = false;
    const WindowEvaluator eval(db, options);

    SoloPricer pricer(eval, 0, {LayerRange{0, 30}, LayerRange{31, 71}},
                      -1);
    const std::vector<int> path = {0, 3};
    pricer.price(path);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pricer.price(path));
    }
}
BENCHMARK(BM_SoloPricer);

/**
 * Window evaluation over a single autoregressive decode step (fused
 * M = 1 GEMMs whose reduction width carries the KV cache). This is
 * the placement-scoring unit cost of the LLM serving path: every
 * decode round that misses the schedule cache pays a window search
 * made of these evaluations.
 */
void
BM_DecodeStepEvaluate(benchmark::State& state)
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 4;
    cfg.dModel = 256;
    cfg.dFf = 1024;
    cfg.vocab = 0;
    Scenario sc;
    sc.name = "decode";
    sc.models = {buildDecodeStepModel(cfg, 256)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowEvaluator eval(db);

    WindowPlacement placement;
    ModelPlacement a;
    a.modelIdx = 0;
    a.segments = {PlacedSegment{LayerRange{0, 5}, 0},
                  PlacedSegment{LayerRange{6, 11}, 3}};
    placement.models = {a};

    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(placement));
    }
}
BENCHMARK(BM_DecodeStepEvaluate);

/**
 * The same two-model window as BM_WindowEvaluate, priced at the
 * opt-in phased fidelity on the broadcast-plane package: flow
 * enumeration, the per-phase link table (with shared-medium
 * aggregation), and the M/D/1 factor memo all run. The gap to
 * BM_WindowEvaluate is the full cost of the higher fidelity; CI
 * gates it against the committed baseline like the other window
 * benches.
 */
void
BM_PhasedContention(benchmark::State& state)
{
    Scenario sc;
    sc.name = "pair";
    sc.models = {zoo::resNet50(4), zoo::bertBase(2)};
    sc.finalize();
    const Mcm mcm = templates::hetSidesBroadcast3x3();
    const CostDb db(sc, mcm);
    EvaluatorOptions options;
    options.fidelity = CommFidelity::Phased;
    const WindowEvaluator eval(db, options);

    WindowPlacement placement;
    ModelPlacement a;
    a.modelIdx = 0;
    a.segments = {PlacedSegment{LayerRange{0, 30}, 0},
                  PlacedSegment{LayerRange{31, 71}, 3}};
    ModelPlacement b;
    b.modelIdx = 1;
    b.segments = {PlacedSegment{LayerRange{0, 17}, 2},
                  PlacedSegment{LayerRange{18, 35}, 5}};
    placement.models = {a, b};

    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(placement));
    }
}
BENCHMARK(BM_PhasedContention);

} // namespace

int
main(int argc, char** argv)
{
    return scar::bench::runMicroBench("micro_costmodel", argc, argv);
}
