/**
 * @file
 * google-benchmark microbenchmarks for the flight recorder: the cost
 * of the *disabled* observability hooks (the zero-overhead-when-off
 * contract the runtime and search layers rely on), and the enabled
 * recording paths for scale.
 */

#include <benchmark/benchmark.h>

#include "micro_bench_main.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/solve_profile.h"
#include "obs/trace.h"

using namespace scar;

namespace
{

/**
 * Calibration anchor for scripts/check_bench_regression.py: the frozen
 * tile-search kernel every micro suite anchors on (see
 * bench::frozenWsTileSearch). No hot-path work touches it, so its time
 * tracks machine speed and normalizes the gate across runners.
 */
void
BM_ObsCalibrationGemm(benchmark::State& state)
{
    bench::runCalibrationGemm(state);
}
BENCHMARK(BM_ObsCalibrationGemm);

/**
 * The disabled path: 64 null-guarded hook sites per iteration — the
 * order of hooks one fleet event or inner search step walks through.
 * DoNotOptimize keeps the null pointers opaque so the guards actually
 * execute instead of folding away; the whole batch should cost a few
 * nanoseconds (predicted not-taken branches).
 */
void
BM_TraceOverheadOff(benchmark::State& state)
{
    obs::FlightRecorder* rec = nullptr;
    benchmark::DoNotOptimize(rec);
    obs::SearchCounters* counters = nullptr;
    benchmark::DoNotOptimize(counters);
    long long sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 32; ++i) {
            if (rec)
                sink += static_cast<long long>(rec->trace().size());
            obs::SearchCounters::bump(
                counters, &obs::SearchCounters::windowEvals);
        }
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_TraceOverheadOff);

/** A live counter bump (relaxed fetch_add through the null guard). */
void
BM_TraceOverheadCounterOn(benchmark::State& state)
{
    obs::SearchCounters counters;
    obs::SearchCounters* live = &counters;
    benchmark::DoNotOptimize(live);
    for (auto _ : state) {
        obs::SearchCounters::bump(
            live, &obs::SearchCounters::windowEvals);
    }
    benchmark::DoNotOptimize(
        counters.windowEvals.load(std::memory_order_relaxed));
}
BENCHMARK(BM_TraceOverheadCounterOn);

/** Recording one virtual span (mutex + event push). */
void
BM_TraceRecordSpan(benchmark::State& state)
{
    obs::TraceRecorder trace;
    double t = 0.0;
    for (auto _ : state) {
        trace.completeVirtual(1, "w0", "replay", t, 0.001);
        t += 0.001;
    }
    benchmark::DoNotOptimize(trace.size());
}
BENCHMARK(BM_TraceRecordSpan);

/** One histogram record (bucket walk + extrema update). */
void
BM_HistogramRecord(benchmark::State& state)
{
    obs::Histogram histogram;
    double v = 1e-5;
    for (auto _ : state) {
        histogram.record(v);
        v = v < 1.0 ? v * 1.7 : 1e-5;
    }
    benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

} // namespace

int
main(int argc, char** argv)
{
    return scar::bench::runMicroBench("micro_obs", argc, argv);
}
