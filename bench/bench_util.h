/**
 * @file
 * Shared experiment-harness utilities for the bench binaries: the
 * strategy catalog of Section V-A (standalone / Simba-like / Het-*)
 * and uniform runners that produce end-to-end metrics plus candidate
 * clouds for Pareto plots.
 *
 * Every bench binary regenerates one paper table or figure and prints
 * the same rows/series the paper reports; raw series are additionally
 * written as CSV under ./bench_results/.
 */

#ifndef SCAR_BENCH_BENCH_UTIL_H
#define SCAR_BENCH_BENCH_UTIL_H

#include <functional>
#include <string>
#include <vector>

#include "arch/chiplet.h"
#include "arch/mcm_templates.h"
#include "baselines/standalone.h"
#include "eval/pareto.h"
#include "eval/scenario_suite.h"
#include "sched/scar.h"
#include "workload/layer.h"

namespace scar
{
namespace bench
{

/** One evaluated MCM strategy: an MCM organization + scheduler kind. */
struct Strategy
{
    std::string name;
    bool standalone = false; ///< standalone baseline vs SCAR scheduling
    std::function<Mcm(int pes)> makeMcm;
};

/** The six 3x3 strategies of Tables IV and V. */
std::vector<Strategy> meshStrategies();

/** The three triangular strategies of Figure 12. */
std::vector<Strategy> triangularStrategies();

/** The three 6x6 strategies of Figure 13. */
std::vector<Strategy> strategies6x6();

/** Standalone NVDLA reference strategy (normalization baseline). */
Strategy standaloneNvd();

/** Outcome of one (strategy, scenario, target) experiment cell. */
struct RunResult
{
    Metrics metrics;
    std::vector<Metrics> candidates;
    ScheduleResult schedule;
};

/**
 * Runs one experiment cell.
 * @param strategy MCM organization + scheduler kind
 * @param scenario workload
 * @param target search objective (ignored for standalone)
 * @param pes chiplet PE count (datacenter 4096 / AR/VR 256)
 * @param base extra SCAR options (nsplits, mode, packing, ...)
 */
RunResult runStrategy(const Strategy& strategy, const Scenario& scenario,
                      OptTarget target, int pes,
                      ScarOptions base = ScarOptions{});

/** Ensures ./bench_results exists and returns the CSV path for a name. */
std::string csvPath(const std::string& name);

/** Ensures ./bench_results exists and returns the JSON path for a name. */
std::string jsonPath(const std::string& name);

/**
 * Argv for a Google-Benchmark micro bench: the caller's argv plus,
 * unless already given (or `--benchmark_list_tests` is, which runs
 * nothing), `--benchmark_out=<jsonPath(name)>` (JSON format) so every
 * run leaves a machine-readable artifact for
 * scripts/check_bench_regression.py, and `--benchmark_min_time` from
 * the SCAR_BENCH_MIN_TIME_S env knob (the CI smoke job shrinks run
 * time through it). The returned strings own the storage; pass
 * pointers into benchmark::Initialize.
 */
std::vector<std::string> microBenchArgs(const std::string& name,
                                        int argc, char** argv);

/**
 * Calibration kernel of the micro-bench regression gates: MaestroLite's
 * weight-stationary K-tile search as it stood before the search learnt
 * to visit only block starts, frozen verbatim — every kt in
 * 1..min(K, numPes), two double divisions each. No hot-path work
 * touches it, so its time tracks machine speed alone; on the
 * calibration case (makeGemmLayer(0, "g", 128, 5120, 1280), 4096 PEs)
 * it runs the 4096-iteration scan the committed baselines were
 * recorded against. Returns a digest of the winning tiling.
 */
double frozenWsTileSearch(const Layer& layer, const ChipletSpec& spec);

/** Environment knob with a fallback for unset/empty variables — the
 *  bench-smoke CI job shrinks sweep sizes through these. */
int envInt(const char* name, int fallback);
double envDouble(const char* name, double fallback);
std::string envStr(const char* name, const std::string& fallback);

} // namespace bench
} // namespace scar

#endif // SCAR_BENCH_BENCH_UTIL_H
