#include "obs/flight_recorder.h"

#include <cstdlib>
#include <filesystem>

#include "common/logging.h"

namespace scar
{
namespace obs
{

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)),
      samples_(options_.sampleIntervalSec)
{
}

std::unique_ptr<FlightRecorder>
FlightRecorder::fromEnv()
{
    const char* flag = std::getenv("SCAR_TRACE");
    if (flag == nullptr || flag[0] == '\0' ||
        (flag[0] == '0' && flag[1] == '\0')) {
        return nullptr;
    }
    FlightRecorderOptions options;
    if (const char* dir = std::getenv("SCAR_TRACE_DIR")) {
        if (dir[0] != '\0')
            options.outDir = dir;
    }
    if (const char* interval = std::getenv("SCAR_TRACE_SAMPLE_SEC")) {
        char* end = nullptr;
        const double parsed = std::strtod(interval, &end);
        if (end != interval && parsed > 0.0) {
            options.sampleIntervalSec = parsed;
        } else {
            warn("ignoring invalid SCAR_TRACE_SAMPLE_SEC=", interval);
        }
    }
    return std::make_unique<FlightRecorder>(std::move(options));
}

bool
FlightRecorder::writeAll() const
{
    std::error_code ec;
    std::filesystem::create_directories(options_.outDir, ec);
    if (ec) {
        warn("flight recorder: cannot create ", options_.outDir, ": ",
             ec.message());
        return false;
    }
    const std::filesystem::path dir(options_.outDir);
    bool ok = true;
    ok &= trace_.writeJson((dir / "trace.json").string());
    ok &= metrics_.writeJson((dir / "metrics.json").string());
    ok &= metrics_.writeCsv((dir / "metrics.csv").string());
    ok &= samples_.writeCsv((dir / "samples.csv").string());
    if (!ok)
        warn("flight recorder: failed writing into ", options_.outDir);
    return ok;
}

} // namespace obs
} // namespace scar
