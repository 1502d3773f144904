#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace scar
{
namespace obs
{

namespace
{

constexpr double kSecToUs = 1e6;

/**
 * Shortest decimal form that round-trips the double exactly, so the
 * exported JSON is deterministic and free of precision noise.
 */
std::string
formatDouble(double value)
{
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

/** Timestamps render with fixed nanosecond precision (ts is in µs). */
std::string
formatTimestamp(double tsUs)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", tsUs);
    return buf;
}

void
appendEscaped(std::string& out, const std::string& text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendArgs(std::string& out, const std::vector<TraceArg>& args)
{
    out += ",\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i != 0)
            out += ',';
        out += '"';
        appendEscaped(out, args[i].key);
        out += "\":";
        if (args[i].quoted) {
            out += '"';
            appendEscaped(out, args[i].value);
            out += '"';
        } else {
            out += args[i].value;
        }
    }
    out += '}';
}

} // namespace

TraceArg
argText(std::string key, std::string value)
{
    return TraceArg{std::move(key), std::move(value), true};
}

TraceArg
argNum(std::string key, double value)
{
    return TraceArg{std::move(key), formatDouble(value), false};
}

TraceArg
argInt(std::string key, long long value)
{
    return TraceArg{std::move(key), std::to_string(value), false};
}

TraceArg
argBool(std::string key, bool value)
{
    return TraceArg{std::move(key), value ? "true" : "false", false};
}

void
TraceRecorder::push(Event event)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
}

void
TraceRecorder::completeVirtual(int tid, std::string name,
                               std::string cat, double startSec,
                               double durSec, std::vector<TraceArg> args)
{
    Event e;
    e.ph = 'X';
    e.tid = tid;
    e.tsUs = startSec * kSecToUs;
    e.durUs = durSec * kSecToUs;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceRecorder::instantVirtual(int tid, std::string name, std::string cat,
                              double atSec, std::vector<TraceArg> args)
{
    Event e;
    e.ph = 'i';
    e.tid = tid;
    e.tsUs = atSec * kSecToUs;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceRecorder::counterVirtual(const std::string& name, double atSec,
                              double value)
{
    Event e;
    e.ph = 'C';
    e.tid = 0;
    e.tsUs = atSec * kSecToUs;
    e.name = name;
    e.cat = "metric";
    e.args.push_back(argNum("value", value));
    push(std::move(e));
}

void
TraceRecorder::asyncBeginVirtual(std::uint64_t id, std::string name,
                                 std::string cat, double atSec,
                                 std::vector<TraceArg> args)
{
    Event e;
    e.ph = 'b';
    e.hasId = true;
    e.id = id;
    e.tid = 0;
    e.tsUs = atSec * kSecToUs;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceRecorder::asyncInstantVirtual(std::uint64_t id, std::string name,
                                   std::string cat, double atSec,
                                   std::vector<TraceArg> args)
{
    Event e;
    e.ph = 'n';
    e.hasId = true;
    e.id = id;
    e.tid = 0;
    e.tsUs = atSec * kSecToUs;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceRecorder::asyncEndVirtual(std::uint64_t id, std::string name,
                               std::string cat, double atSec,
                               std::vector<TraceArg> args)
{
    Event e;
    e.ph = 'e';
    e.hasId = true;
    e.id = id;
    e.tid = 0;
    e.tsUs = atSec * kSecToUs;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceRecorder::setThreadName(int tid, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    threadNames_[tid] = std::move(name);
}

std::size_t
TraceRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    threadNames_.clear();
}

std::string
TraceRecorder::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out.reserve(events_.size() * 96 + 256);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&]() {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Metadata first: the process and thread track names. std::map
    // keeps the emission order deterministic.
    const std::string pid = std::to_string(kVirtualPid);
    comma();
    out += "{\"ph\":\"M\",\"pid\":";
    out += pid;
    out += ",\"tid\":0,\"name\":\"process_name\",\"args\":"
           "{\"name\":\"fleet (virtual time)\"}}";
    for (const auto& [tid, name] : threadNames_) {
        comma();
        out += "{\"ph\":\"M\",\"pid\":";
        out += pid;
        out += ",\"tid\":";
        out += std::to_string(tid);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        appendEscaped(out, name);
        out += "\"}}";
    }

    for (const Event& e : events_) {
        comma();
        out += "{\"ph\":\"";
        out += e.ph;
        out += "\",\"pid\":";
        out += pid;
        out += ",\"tid\":";
        out += std::to_string(e.tid);
        out += ",\"ts\":";
        out += formatTimestamp(e.tsUs);
        if (e.ph == 'X') {
            out += ",\"dur\":";
            out += formatTimestamp(e.durUs);
        }
        out += ",\"name\":\"";
        appendEscaped(out, e.name);
        out += "\",\"cat\":\"";
        appendEscaped(out, e.cat);
        out += '"';
        if (e.hasId) {
            out += ",\"id\":";
            out += std::to_string(e.id);
        }
        if (e.ph == 'i')
            out += ",\"s\":\"t\"";
        if (!e.args.empty())
            appendArgs(out, e.args);
        out += '}';
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
TraceRecorder::writeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out.good())
        return false;
    out << toJson();
    return out.good();
}

} // namespace obs
} // namespace scar
