#include "runtime/serving_report.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace scar
{
namespace runtime
{

namespace
{

/** Nearest-rank percentile of an ascending-sorted sample. */
double
sortedPercentile(const std::vector<double>& sorted, double p)
{
    SCAR_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (sorted.empty())
        return 0.0;
    // The ceil(p/100 * n)-th smallest value (1-based).
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * sorted.size()));
    return sorted[rank == 0 ? 0 : rank - 1];
}

} // namespace

double
percentileSec(std::vector<double> latencies, double p)
{
    std::sort(latencies.begin(), latencies.end());
    return sortedPercentile(latencies, p);
}

ServingReport
summarizeServing(const std::vector<Request>& requests, long offered,
                 long dispatches, long paddedSlots,
                 const ScheduleCacheStats& cacheStats, long uniqueMixes,
                 const std::vector<std::string>& modelNames)
{
    ServingReport report;
    report.offered = offered;
    report.dispatches = dispatches;
    report.cache = cacheStats;
    report.uniqueMixes = uniqueMixes;

    std::vector<double> latencies;
    latencies.reserve(requests.size());
    std::vector<double> preemptedLatencies;
    double sum = 0.0;
    for (const Request& req : requests) {
        if (!req.completed())
            continue;
        ++report.completed;
        const double lat = req.latencySec();
        latencies.push_back(lat);
        sum += lat;
        report.maxLatencySec = std::max(report.maxLatencySec, lat);
        report.horizonSec =
            std::max(report.horizonSec, req.completionSec);
        if (req.sloViolated())
            ++report.sloViolations;
        if (req.preempted) {
            ++report.preemptedRequests;
            preemptedLatencies.push_back(lat);
        }
    }
    if (!preemptedLatencies.empty()) {
        std::sort(preemptedLatencies.begin(),
                  preemptedLatencies.end());
        report.preemptedP99Sec =
            sortedPercentile(preemptedLatencies, 99.0);
    }
    // Autoregressive token metrics: TTFT (arrival -> first token,
    // i.e. the prefill completion) and TPOT (decode cadence over the
    // remaining outputTokens - 1 tokens).
    {
        std::vector<double> ttfts;
        double ttftSum = 0.0;
        double tpotSum = 0.0;
        long tpotCount = 0;
        std::int64_t genTokens = 0;
        for (const Request& req : requests) {
            if (!req.completed() || req.outputTokens <= 0)
                continue;
            ++report.llmRequests;
            genTokens += req.outputTokens;
            const double ttft = req.ttftSec();
            ttfts.push_back(ttft);
            ttftSum += ttft;
            if (req.outputTokens > 1) {
                tpotSum += (req.completionSec - req.firstTokenSec) /
                           (req.outputTokens - 1);
                ++tpotCount;
            }
        }
        if (report.llmRequests > 0) {
            report.meanTtftSec = ttftSum / report.llmRequests;
            std::sort(ttfts.begin(), ttfts.end());
            report.p99TtftSec = sortedPercentile(ttfts, 99.0);
        }
        if (tpotCount > 0)
            report.meanTpotSec = tpotSum / tpotCount;
        if (report.horizonSec > 0.0)
            report.genTokensPerSec = genTokens / report.horizonSec;
    }
    if (report.completed > 0) {
        report.meanLatencySec = sum / report.completed;
        std::sort(latencies.begin(), latencies.end());
        report.p50LatencySec = sortedPercentile(latencies, 50.0);
        report.p95LatencySec = sortedPercentile(latencies, 95.0);
        report.p99LatencySec = sortedPercentile(latencies, 99.0);
        report.sloViolationRate =
            static_cast<double>(report.sloViolations) / report.completed;
    }
    if (report.horizonSec > 0.0)
        report.throughputRps = report.completed / report.horizonSec;
    if (paddedSlots > 0)
        report.batchOccupancy =
            static_cast<double>(report.completed) / paddedSlots;

    // Per-model queue-wait vs execution decomposition. latency =
    // (dispatch - arrival) + (completion - dispatch): the first term
    // is admission/batching/routing delay, the second the replay
    // (suspension gaps included for preempted requests).
    report.perModel.resize(modelNames.size());
    for (std::size_t m = 0; m < modelNames.size(); ++m) {
        ModelServingBreakdown& mb = report.perModel[m];
        mb.modelIdx = static_cast<int>(m);
        mb.name = modelNames[m];
        std::vector<double> total;
        std::vector<double> queue;
        std::vector<double> exec;
        double totalSum = 0.0;
        double queueSum = 0.0;
        double execSum = 0.0;
        for (const Request& req : requests) {
            if (!req.completed() ||
                req.modelIdx != static_cast<int>(m))
                continue;
            ++mb.completed;
            if (req.sloViolated())
                ++mb.sloViolations;
            const double lat = req.latencySec();
            const double queueSec = req.dispatchSec - req.arrivalSec;
            const double execSec = req.completionSec - req.dispatchSec;
            total.push_back(lat);
            queue.push_back(queueSec);
            exec.push_back(execSec);
            totalSum += lat;
            queueSum += queueSec;
            execSum += execSec;
        }
        if (mb.completed == 0)
            continue;
        std::sort(total.begin(), total.end());
        std::sort(queue.begin(), queue.end());
        std::sort(exec.begin(), exec.end());
        mb.meanLatencySec = totalSum / mb.completed;
        mb.p50LatencySec = sortedPercentile(total, 50.0);
        mb.p95LatencySec = sortedPercentile(total, 95.0);
        mb.p99LatencySec = sortedPercentile(total, 99.0);
        mb.meanQueueSec = queueSum / mb.completed;
        mb.p50QueueSec = sortedPercentile(queue, 50.0);
        mb.p95QueueSec = sortedPercentile(queue, 95.0);
        mb.p99QueueSec = sortedPercentile(queue, 99.0);
        mb.meanExecSec = execSum / mb.completed;
        mb.p50ExecSec = sortedPercentile(exec, 50.0);
        mb.p95ExecSec = sortedPercentile(exec, 95.0);
        mb.p99ExecSec = sortedPercentile(exec, 99.0);
    }
    return report;
}

} // namespace runtime
} // namespace scar
