#include "spans.h"

#include <algorithm>
#include <fstream>
#include <ios>
#include <stdexcept>
#include <utility>

namespace perfbench
{

SpanRecorder::SpanRecorder(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)),
      epoch_(Clock::now())
{
}

int
SpanRecorder::open(const std::string& name)
{
    Span span;
    span.name = name;
    span.layer = name.substr(0, name.find('.'));
    span.startUs =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    spans_[static_cast<std::size_t>(index)].endUs =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
}

double
SpanRecorder::totalMs(const std::string& name) const
{
    double us = 0.0;
    for (const Span& span : spans_)
        if (span.name == name)
            us += span.endUs - span.startUs;
    return us / 1000.0;
}

long
SpanRecorder::count(const std::string& name) const
{
    return static_cast<long>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
}

namespace
{

/** Summed durations of each span's direct children. Children of one
 *  span never overlap (the recorder is a single stack). */
std::vector<double>
childUs(const std::vector<Span>& spans)
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& span : spans)
        if (span.parent >= 0)
            covered[static_cast<std::size_t>(span.parent)] +=
                span.endUs - span.startUs;
    return covered;
}

std::string
jsonEscape(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::map<std::string, LayerTime>
SpanRecorder::layerTimes() const
{
    const std::vector<double> covered = childUs(spans_);
    std::map<std::string, LayerTime> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double us = spans_[i].endUs - spans_[i].startUs;
        LayerTime& layer = layers[spans_[i].layer];
        ++layer.spans;
        layer.totalMs += us / 1000.0;
        layer.selfMs += (us - covered[i]) / 1000.0;
    }
    return layers;
}

double
SpanRecorder::childCoverage(const std::string& rootName) const
{
    const std::vector<double> covered = childUs(spans_);
    double rootUs = 0.0;
    double coveredUs = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0 || spans_[i].name != rootName)
            continue;
        rootUs += spans_[i].endUs - spans_[i].startUs;
        coveredUs += covered[i];
    }
    return rootUs > 0.0 ? coveredUs / rootUs : 1.0;
}

bool
SpanRecorder::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    out << std::fixed;
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\""
            << jsonEscape(span.name) << "\",\"cat\":\""
            << jsonEscape(span.layer)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << span.startUs << ",\"dur\":" << span.endUs - span.startUs
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
            << ",\"workload\":\"" << jsonEscape(workload_) << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
