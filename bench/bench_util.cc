#include "bench_util.h"

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
