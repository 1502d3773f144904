/**
 * @file
 * google-benchmark microbenchmarks for the scheduler engines:
 * scheduling-tree path enumeration, the Heuristic-1 segmentation
 * ranking, per-window SCHED search, and the end-to-end SCAR run on a
 * representative scenario.
 */

#include <benchmark/benchmark.h>

#include "arch/mcm_templates.h"
#include "micro_bench_main.h"
#include "eval/scenario_suite.h"
#include "sched/scar.h"
#include "sched/sched_tree.h"
#include "sched/segmentation.h"
#include "workload/model_zoo.h"

using namespace scar;

namespace
{

/**
 * Path enumeration on the empty 6x6 mesh. Long paths (24, 33 of 36
 * nodes) are where an unbounded DFS spends its time in dead ends: the
 * EA's 6x6 solves ask for them.
 */
void
BM_PathEnumeration(benchmark::State& state)
{
    const Topology topo = Topology::mesh(6, 6);
    const std::vector<bool> blocked(36, false);
    const int length = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            enumeratePathsAllRoots(topo, length, blocked, 96));
    }
}
BENCHMARK(BM_PathEnumeration)->Arg(2)->Arg(4)->Arg(6)->Arg(24)->Arg(33);

/**
 * Heuristic-1 ranking of one model's window range — the SEG front end
 * of every window search: BERT-base at up to 6 segments takes the
 * capped branch (512 distinct sampled splits per count), so this
 * times the streaming enumeration, scoring and top-k selection.
 */
void
BM_RankSegmentations(benchmark::State& state)
{
    Scenario sc;
    sc.name = "rank";
    sc.models = {zoo::bertBase(8)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const LayerRange range{0, sc.models[0].numLayers() - 1};
    for (auto _ : state) {
        Rng rng(1);
        benchmark::DoNotOptimize(rankSegmentations(
            db, 0, range, 6, OptTarget::Edp, SegmentationOptions{}, rng));
    }
}
BENCHMARK(BM_RankSegmentations);

/**
 * The longest Heuristic-1 ranking of the EA's 6x6 solve: GPT-L's
 * 39-layer middle window of the Sc4 suite over up to 36 segments at
 * the default options, so nearly every count samples 512 splits.
 * `skip_rate` is the share of candidates whose exact score the
 * lower bound skipped. Not gated.
 */
void
BM_RankSegmentations6x6(benchmark::State& state)
{
    Scenario sc;
    sc.name = "rank6x6";
    sc.models = {zoo::gptL(8)};
    sc.finalize();
    const Mcm mcm = templates::hetCross6x6(templates::kDatacenterPes);
    CostDb db(sc, mcm);
    obs::SearchCounters counters;
    db.setCounters(&counters);
    const LayerRange range{40, 78};
    for (auto _ : state) {
        Rng rng(1);
        benchmark::DoNotOptimize(rankSegmentations(
            db, 0, range, 36, OptTarget::Edp, SegmentationOptions{}, rng));
    }
    const double visited =
        static_cast<double>(counters.segCandidates.load());
    state.counters["skip_rate"] =
        visited > 0.0
            ? 1.0 - static_cast<double>(counters.segScored.load()) / visited
            : 0.0;
}
BENCHMARK(BM_RankSegmentations6x6)->Unit(benchmark::kMillisecond);

/**
 * The placement half of one window search — refinement, combos and
 * beam placements — from a precomputed Heuristic-1 ranking: the part
 * Scar::run walks serially, window by window.
 */
void
BM_WindowSearch(benchmark::State& state)
{
    Scenario sc;
    sc.name = "pair";
    sc.models = {zoo::eyeCod(8), zoo::bertBase(2)};
    sc.finalize();
    const Mcm mcm = templates::hetSides3x3();
    const CostDb db(sc, mcm);
    const WindowScheduler sched(db, OptTarget::Edp);
    WindowAssignment wa;
    wa.perModel = {LayerRange{0, sc.models[0].numLayers() - 1},
                   LayerRange{0, 11}};
    const WindowScheduler::Ranking ranking =
        sched.rank(wa, {3, 3}, /*seed=*/1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.search(wa, ranking));
    }
}
BENCHMARK(BM_WindowSearch);

void
BM_ScarFullRun(benchmark::State& state)
{
    const Scenario sc = suite::datacenterScenario(
        static_cast<int>(state.range(0)));
    const Mcm mcm = templates::hetSides3x3();
    for (auto _ : state) {
        Scar scar(sc, mcm, ScarOptions{});
        benchmark::DoNotOptimize(scar.run());
    }
}
BENCHMARK(BM_ScarFullRun)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/**
 * One EA solve on the 6x6 package. Serial (threads = 1) because the
 * CI gate normalises by a single-threaded calibration: on the global
 * pool the time would scale with the runner's core count.
 */
void
BM_ScarEvolutionary6x6(benchmark::State& state)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetCross6x6();
    for (auto _ : state) {
        ScarOptions opts;
        opts.mode = SearchMode::Evolutionary;
        opts.nsplits = 2;
        opts.threads = 1;
        Scar scar(sc, mcm, opts);
        benchmark::DoNotOptimize(scar.run());
    }
}
BENCHMARK(BM_ScarEvolutionary6x6)->Unit(benchmark::kMillisecond);

/**
 * Calibration anchor for scripts/check_bench_regression.py: the frozen
 * tile-search kernel every micro suite anchors on (see
 * bench::frozenWsTileSearch). No hot-path work touches it, so its time
 * tracks machine speed and normalizes the gate across runners.
 */
void
BM_CalibrationGemm(benchmark::State& state)
{
    bench::runCalibrationGemm(state);
}
BENCHMARK(BM_CalibrationGemm);

/**
 * Path enumeration through the PathCache on a hit — the lookup the
 * beam search pays once per (length, occupancy) beam state.
 */
void
BM_PathCacheHit(benchmark::State& state)
{
    const Topology topo = Topology::mesh(6, 6);
    const std::vector<bool> blocked(36, false);
    PathCache cache;
    benchmark::DoNotOptimize(cache.get(topo, 4, blocked, 96));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(topo, 4, blocked, 96));
    }
}
BENCHMARK(BM_PathCacheHit);

} // namespace

int
main(int argc, char** argv)
{
    return scar::bench::runMicroBench("micro_sched", argc, argv);
}
