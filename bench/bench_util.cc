#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

namespace scar
{
namespace bench
{

std::vector<Strategy>
meshStrategies()
{
    return {
        Strategy{"Stand.(Shi)", true,
                 [](int pes) {
                     return templates::simba3x3(Dataflow::ShiOS, pes);
                 }},
        Strategy{"Stand.(NVD)", true,
                 [](int pes) {
                     return templates::simba3x3(Dataflow::NvdlaWS, pes);
                 }},
        Strategy{"Simba (Shi)", false,
                 [](int pes) {
                     return templates::simba3x3(Dataflow::ShiOS, pes);
                 }},
        Strategy{"Simba (NVD)", false,
                 [](int pes) {
                     return templates::simba3x3(Dataflow::NvdlaWS, pes);
                 }},
        Strategy{"Het-CB", false,
                 [](int pes) { return templates::hetCb3x3(pes); }},
        Strategy{"Het-Sides", false,
                 [](int pes) { return templates::hetSides3x3(pes); }},
    };
}

std::vector<Strategy>
triangularStrategies()
{
    return {
        Strategy{"Simba-T (Shi)", false,
                 [](int pes) {
                     return templates::simbaTriangular(Dataflow::ShiOS,
                                                       pes);
                 }},
        Strategy{"Simba-T (NVD)", false,
                 [](int pes) {
                     return templates::simbaTriangular(
                         Dataflow::NvdlaWS, pes);
                 }},
        Strategy{"Het-T", false,
                 [](int pes) { return templates::hetTriangular(pes); }},
    };
}

std::vector<Strategy>
strategies6x6()
{
    return {
        Strategy{"Simba-6 (Shi)", false,
                 [](int pes) {
                     return templates::simba6x6(Dataflow::ShiOS, pes);
                 }},
        Strategy{"Simba-6 (NVD)", false,
                 [](int pes) {
                     return templates::simba6x6(Dataflow::NvdlaWS, pes);
                 }},
        Strategy{"Het-Cross", false,
                 [](int pes) { return templates::hetCross6x6(pes); }},
    };
}

Strategy
standaloneNvd()
{
    return Strategy{"Stand.(NVD)", true, [](int pes) {
                        return templates::simba3x3(Dataflow::NvdlaWS,
                                                   pes);
                    }};
}

RunResult
runStrategy(const Strategy& strategy, const Scenario& scenario,
            OptTarget target, int pes, ScarOptions base)
{
    const Mcm mcm = strategy.makeMcm(pes);
    RunResult result;
    if (strategy.standalone) {
        result.schedule = scheduleStandalone(scenario, mcm);
    } else {
        base.target = target;
        Scar scar(scenario, mcm, base);
        result.schedule = scar.run();
    }
    result.metrics = result.schedule.metrics;
    result.candidates = result.schedule.candidates;
    return result;
}

std::string
csvPath(const std::string& name)
{
    std::filesystem::create_directories("bench_results");
    return "bench_results/" + name + ".csv";
}

std::string
jsonPath(const std::string& name)
{
    std::filesystem::create_directories("bench_results");
    return "bench_results/" + name + ".json";
}

std::vector<std::string>
microBenchArgs(const std::string& name, int argc, char** argv)
{
    std::vector<std::string> args(argv, argv + argc);
    // Flag detection must not confuse --benchmark_out with
    // --benchmark_out_format: match "<flag>=" or the exact flag.
    auto hasFlag = [&](const std::string& flag) {
        for (const std::string& arg : args) {
            if (arg == flag || arg.rfind(flag + "=", 0) == 0)
                return true;
        }
        return false;
    };
    // Listing runs nothing, so it must not create or truncate the
    // JSON a run would write (the committed gate baselines live at
    // that path when run from the repository root).
    if (!hasFlag("--benchmark_out") &&
        !hasFlag("--benchmark_list_tests")) {
        args.push_back("--benchmark_out=" + jsonPath(name));
        if (!hasFlag("--benchmark_out_format"))
            args.push_back("--benchmark_out_format=json");
    }
    const char* minTime = std::getenv("SCAR_BENCH_MIN_TIME_S");
    if (minTime != nullptr && *minTime != '\0' &&
        !hasFlag("--benchmark_min_time")) {
        args.push_back(std::string("--benchmark_min_time=") + minTime);
    }
    return args;
}

double
frozenWsTileSearch(const Layer& layer, const ChipletSpec& spec)
{
    const auto ceilDiv = [](double a, double b) { return std::ceil(a / b); };
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    // Depthwise layers have no cross-channel reduction to parallelize.
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double npes = spec.numPes;

    // Search the K-tile size; the C-tile takes the remaining PEs.
    // Cost = (#K passes) * (#C passes) * R*S*OY*OX cycles per sample;
    // ties break toward the tiling with the least L2 traffic (input
    // re-streams per K pass, partial-sum spills per extra C pass).
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestTraffic = 0.0;
    double bestKt = 0.0;
    double bestCt = 0.0;
    for (int kt = 1; kt <= ktMax; ++kt) {
        const double ct = std::min(c, std::floor(npes / kt));
        if (ct < 1.0)
            break;
        const double passes = ceilDiv(k, kt) * ceilDiv(c, ct);
        const double traffic =
            layer.inputBytes() * ceilDiv(k, kt) +
            2.0 * layer.outputBytes() * (ceilDiv(c, ct) - 1.0);
        if (bestKt == 0.0 || passes < bestPasses ||
            (passes == bestPasses && traffic < bestTraffic)) {
            bestPasses = passes;
            bestTraffic = traffic;
            bestKt = kt;
            bestCt = ct;
        }
    }
    return bestPasses + bestTraffic + bestKt + bestCt;
}

int
envInt(const char* name, int fallback)
{
    const char* value = std::getenv(name);
    return value != nullptr && *value != '\0' ? std::atoi(value)
                                              : fallback;
}

double
envDouble(const char* name, double fallback)
{
    const char* value = std::getenv(name);
    return value != nullptr && *value != '\0' ? std::atof(value)
                                              : fallback;
}

std::string
envStr(const char* name, const std::string& fallback)
{
    const char* value = std::getenv(name);
    return value != nullptr && *value != '\0' ? std::string(value)
                                              : fallback;
}

} // namespace bench
} // namespace scar
