/**
 * @file
 * scarbench: end-to-end host-time benchmark of libscar.
 *
 *   scarbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--setup-only]
 *
 * Sets the workload up, then repeats timed passes until `--seconds`
 * have passed, checks every pass's outputs, and prints one JSON object
 * as the last line of standard output:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones (set-up time,
 * pass wall time, throughput, peak memory); the set-up is repeated in
 * two child processes (--setup-only) so setup_s is a median of three.
 * With --trace 1 untraced and traced passes alternate, spans are
 * written to .bench_out/trace_<workload>_seed<n>.json under the
 * working directory, and the metrics
 * are the per-layer ones. Exit status is 0 only when every output
 * check and regime guard passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace
{

using namespace perfbench;

/** Set-up samples per --trace 0 run: this process plus children. */
constexpr int kSetupSamples = 3;
/** Fewest timed passes per kind, even past the measuring window. */
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
/** Where traced runs write their Chrome trace. */
constexpr const char* kTraceDir = ".bench_out";

struct MetricDef
{
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics; a workload that does not run a layer reports 0
 *  for it. Keep in step with BENCHMARK.json and README.md. */
const std::vector<MetricDef> kPerLayer = {
    {"workload.build_ms", "ms"},
    {"cost.db_build_ms_cold", "ms"},
    {"cost.table_hit_rate", "ratio"},
    {"cost.db_build_ms", "ms"},
    {"cost.range_rate", "ratio"},
    {"cost.window_evals", "count"},
    {"sched.run_ms", "ms"},
    {"sched.pack_ms", "ms"},
    {"sched.provision_ms", "ms"},
    {"sched.search_ms", "ms"},
    {"sched.windows", "count"},
    {"sched.combos_placed", "count"},
    {"sched.ea_generations", "count"},
    {"sched.solo_hit_rate", "ratio"},
    {"sched.path_hit_rate", "ratio"},
    {"sched.edp_geomean", "J.s"},
    {"runtime.arrival.trace_ms", "ms"},
    {"runtime.fleet.ctor_ms", "ms"},
    {"runtime.fleet.run_s", "s"},
    {"runtime.fleet.host_us_per_dispatch", "us"},
    {"runtime.report.summarize_ms", "ms"},
    {"runtime.cache.solves", "count"},
    {"runtime.cache.hit_rate", "ratio"},
    {"runtime.cache.unique_mixes", "count"},
    {"runtime.cache.solves_per_req", "ratio"},
    {"runtime.fleet.warm_rerun_s", "s"},
    {"runtime.fleet.warm_rerun_solves", "count"},
    {"runtime.fleet.solve_share_est", "ratio"},
    {"runtime.routing.contested", "count"},
    {"runtime.routing.cost_optimal_frac", "ratio"},
    {"runtime.admission.dispatches", "count"},
    {"runtime.admission.batch_occupancy", "ratio"},
    {"runtime.fleet.solve_stall_s", "s"},
    {"runtime.executor.preemptions", "count"},
    {"runtime.executor.llm_joins", "count"},
    {"runtime.executor.llm_decode_rounds", "count"},
    {"runtime.report.sim_p99_s", "s"},
    {"runtime.report.sim_slo_miss", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.span_coverage", "ratio"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
};

int
usage(const std::string& error)
{
    std::cerr << "scarbench: " << error
              << "\nusage: scarbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-only]\n"
                 "workloads:";
    for (const std::string& name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
}

bool
parseArgs(int argc, char** argv, Args& args, std::string& error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else {
                error = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception&) {
            error = "bad value '" + value + "' for " + flag;
            return false;
        }
    }
    if (args.workload.empty()) {
        error = "--workload is required";
        return false;
    }
    if (!(args.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/** Runs this binary with --setup-only and returns its set-up time. */
double
setupProbe(const Args& args)
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        throw std::runtime_error("cannot locate /proc/self/exe");
    const std::string cmd = "'" + exe.string() + "' --workload " +
                            args.workload + " --seed " +
                            std::to_string(args.seed) + " --setup-only";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        throw std::runtime_error("cannot start the set-up probe");
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        output += buf;
    if (pclose(pipe) != 0)
        throw std::runtime_error("set-up probe failed");
    std::istringstream in(output);
    std::string key;
    double value = 0.0;
    if (!(in >> key >> value) || key != "setup_s")
        throw std::runtime_error("set-up probe printed no setup_s");
    return value;
}

std::string
num(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

void
printJson(bool correct, long attempted, long failed,
          const std::vector<MetricDef>& defs, const MetricValues& values)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << defs[i].name
                  << "\": {\"value\": " << num(values.at(defs[i].name))
                  << ", \"unit\": \"" << defs[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

void
printTable(const std::vector<MetricDef>& defs, const MetricValues& values)
{
    for (const MetricDef& def : defs)
        std::cout << "  " << std::left << std::setw(38) << def.name
                  << std::right << std::setw(16)
                  << values.at(def.name) << ' ' << def.unit << '\n';
}

void
printSelfTimes(const SpanRecorder& rec)
{
    double rootMs = 0.0;
    for (const Span& span : rec.spans())
        if (span.parent < 0)
            rootMs += (span.endUs - span.startUs) / 1000.0;
    std::cout << "per-layer self time over the traced set-up and passes "
                 "(bench = the harness itself):\n"
              << "  layer      spans     total_ms      self_ms   self%\n";
    for (const auto& [layer, t] : rec.layerTimes())
        std::cout << "  " << std::left << std::setw(9) << layer
                  << std::right << std::setw(7) << t.spans
                  << std::setw(13) << std::fixed << std::setprecision(1)
                  << t.totalMs << std::setw(13) << t.selfMs
                  << std::setw(8)
                  << (rootMs > 0 ? 100.0 * t.selfMs / rootMs : 0.0)
                  << std::defaultfloat << std::setprecision(6) << '\n';
}

int
run(const Args& args, Clock::time_point processStart)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed);
    if (!workload)
        return usage("unknown workload '" + args.workload + "'");

    SpanRecorder rec(args.trace, args.workload);
    {
        Scope root(rec, "bench.setup");
        workload->setup(rec);
    }
    const double setupSec = secondsSince(processStart);
    if (args.setupOnly) {
        std::cout << "setup_s " << num(setupSec) << std::endl;
        return 0;
    }

    // Timed passes; a traced run alternates untraced and traced ones.
    Checks checks;
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    const auto measureStart = Clock::now();
    for (int i = 0;; ++i) {
        const bool tracedPass = args.trace && i % 2 == 1;
        rec.setEnabled(tracedPass);
        PassResult pass;
        {
            Scope root(rec, "bench.pass");
            pass = workload->pass(rec);
        }
        {
            Scope root(rec, "bench.check");
            workload->afterPass(rec, checks);
        }
        (tracedPass ? traced : untraced).push_back(std::move(pass));
        const bool enough =
            untraced.size() >= (args.trace ? kMinTracedPasses : kMinPasses) &&
            (!args.trace || traced.size() >= kMinTracedPasses);
        if (enough && secondsSince(measureStart) >= args.seconds)
            break;
    }
    const double measuredSec = secondsSince(measureStart);

    std::vector<double> walls;
    std::vector<double> rates;
    for (const PassResult& pass : untraced) {
        walls.push_back(pass.wallSec);
        rates.push_back(pass.operations / pass.wallSec);
    }
    const double wallSec = median(walls);

    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ": " << untraced.size() << " untraced and "
              << traced.size() << " traced passes in " << measuredSec
              << " s\n"
              << "  wall_s             " << wallSec << " s (median of "
              << walls.size() << " passes; min "
              << *std::min_element(walls.begin(), walls.end()) << ", max "
              << *std::max_element(walls.begin(), walls.end()) << ")\n"
              << "  " << workload->operationName() << " per pass     "
              << untraced.front().operations << "\n"
              << "  fail_rate          "
              << (checks.attempted ? double(checks.failed) / checks.attempted
                                   : 0.0)
              << " (" << checks.failed << " of " << checks.attempted
              << " operations)\n";
    workload->describe(std::cout);
    for (const std::string& message : checks.messages)
        std::cerr << "OUTPUT CHECK FAILED: " << message << '\n';

    MetricValues values;
    const std::vector<MetricDef>* defs = &kEndToEnd;
    if (!args.trace) {
        std::vector<double> setups = {setupSec};
        for (int i = 1; i < kSetupSamples; ++i)
            setups.push_back(setupProbe(args));
        values["setup_s"] = median(setups);
        values["wall_s"] = wallSec;
        values["ops_per_s"] = median(rates);
        values["peak_rss_mb"] = peakRssMb();
        std::cout << "  set-up samples     ";
        for (const double s : setups)
            std::cout << s << " s  ";
        std::cout << "\nend-to-end metrics:\n";
    } else {
        defs = &kPerLayer;
        for (const MetricDef& def : kPerLayer)
            values[def.name] = 0.0;
        workload->layerMetrics(rec, values);
        std::vector<double> tracedWalls;
        for (const PassResult& pass : traced)
            tracedWalls.push_back(pass.wallSec);
        values["trace.overhead_s"] = median(tracedWalls) - wallSec;
        values["trace.span_coverage"] = rec.childCoverage("bench.pass");
        if (values.size() != kPerLayer.size())
            throw std::logic_error("workload reported an unlisted metric");
        printSelfTimes(rec);
        std::filesystem::create_directories(kTraceDir);
        const std::string path = std::string(kTraceDir) + "/trace_" +
                                 args.workload + "_seed" +
                                 std::to_string(args.seed) + ".json";
        if (!rec.writeChromeTrace(path))
            throw std::runtime_error("cannot write " + path);
        std::cout << "Chrome trace: " << path << "\nper-layer metrics:\n";
    }
    printTable(*defs, values);

    bool finite = true;
    for (const auto& [name, value] : values)
        finite = finite && std::isfinite(value);
    const bool correct = checks.failed == 0 && finite;
    printJson(correct, checks.attempted, checks.failed, *defs, values);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto processStart = Clock::now();
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error))
        return usage(error);
    try {
        return run(args, processStart);
    } catch (const RegimeError& e) {
        std::cerr << "REGIME GUARD FAILED: " << e.what() << '\n';
    } catch (const std::exception& e) {
        std::cerr << "scarbench: " << e.what() << '\n';
    }
    return 1;
}
