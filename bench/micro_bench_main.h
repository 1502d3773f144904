/**
 * @file
 * Shared main() body for the Google-Benchmark micro benches.
 *
 * Header-only on purpose: bench_util.cc links into every bench
 * binary, and only the micro benches link benchmark::benchmark, so
 * the one function that touches the benchmark API must not live in
 * the shared library. Each micro bench's main() is one call:
 *
 *   int main(int argc, char** argv)
 *   { return scar::bench::runMicroBench("micro_sched", argc, argv); }
 *
 * It also holds the iteration loop of the gates' calibration anchor
 * (runCalibrationGemm), which needs the benchmark API for the same
 * reason.
 *
 * Behavior: always leaves bench_results/<name>.json (the
 * regression-gate artifact) and honors the SCAR_BENCH_MIN_TIME_S
 * smoke knob; explicit --benchmark_* flags win over both defaults
 * (see microBenchArgs).
 */

#ifndef SCAR_BENCH_MICRO_BENCH_MAIN_H
#define SCAR_BENCH_MICRO_BENCH_MAIN_H

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace scar
{
namespace bench
{

/**
 * The regression gates' calibration anchor: frozenWsTileSearch on the
 * 4096-PE GEMM. Each micro suite registers it under its own name
 * (BM_CostModelCalibrationGemm, BM_CalibrationGemm, ...). The inputs
 * pass through DoNotOptimize every iteration, so the scan cannot be
 * folded or hoisted out of the loop.
 */
inline void
runCalibrationGemm(benchmark::State& state)
{
    Layer gemm = makeGemmLayer(0, "g", 128, 5120, 1280);
    ChipletSpec spec;
    spec.dataflow = Dataflow::NvdlaWS;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gemm);
        benchmark::DoNotOptimize(spec);
        benchmark::DoNotOptimize(frozenWsTileSearch(gemm, spec));
    }
}

inline int
runMicroBench(const std::string& name, int argc, char** argv)
{
    std::vector<std::string> args = microBenchArgs(name, argc, argv);
    std::vector<char*> argvExt;
    argvExt.reserve(args.size());
    for (std::string& arg : args)
        argvExt.push_back(arg.data());
    int argcExt = static_cast<int>(argvExt.size());
    benchmark::Initialize(&argcExt, argvExt.data());
    if (benchmark::ReportUnrecognizedArguments(argcExt, argvExt.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace bench
} // namespace scar

#endif // SCAR_BENCH_MICRO_BENCH_MAIN_H
