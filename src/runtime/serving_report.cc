#include "runtime/serving_report.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace scar
{
namespace runtime
{

namespace
{

/** 0-based index of the nearest-rank p-th percentile of n values:
 *  the ceil(p/100 * n)-th smallest (1-based). */
std::size_t
rankIndex(std::size_t n, double p)
{
    SCAR_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    return rank == 0 ? 0 : rank - 1;
}

/**
 * Mean and nearest-rank p50 / p95 / p99 of a non-empty sample given
 * in request order, so the mean's sum accumulates in that order. The
 * sample is then reordered: each selection runs on the part above the
 * previous rank, which holds every larger order statistic, so the
 * values equal those of a full sort.
 */
void
summarize(std::vector<double>& values, double& mean, double& p50,
          double& p95, double& p99)
{
    mean = std::accumulate(values.begin(), values.end(), 0.0) /
           values.size();
    auto from = values.begin();
    for (const auto& [p, out] : {std::pair<double, double*>{50.0, &p50},
                                 {95.0, &p95},
                                 {99.0, &p99}}) {
        const auto nth = values.begin() + rankIndex(values.size(), p);
        std::nth_element(from, nth, values.end());
        *out = *nth;
        from = nth;
    }
}

} // namespace

double
percentileSec(std::vector<double> latencies, double p)
{
    const std::size_t idx = rankIndex(latencies.size(), p);
    if (latencies.empty())
        return 0.0;
    std::nth_element(latencies.begin(), latencies.begin() + idx,
                     latencies.end());
    return latencies[idx];
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
    report.perModel.resize(modelNames.size());
    // Per model: its completed requests' indices, in request order.
    std::vector<std::vector<std::size_t>> members(modelNames.size());

    // One pass, grouped by model. Per model, latency = queue + exec:
    // (dispatch - arrival) is admission/batching/routing delay,
    // (completion - dispatch) the replay (suspension gaps included for
    // preempted requests). Autoregressive requests add TTFT (arrival
    // -> first token, i.e. the prefill completion) and TPOT (decode
    // cadence over the remaining outputTokens - 1 tokens).
    std::vector<double> latencies;
    latencies.reserve(requests.size());
    std::vector<double> preemptedLatencies;
    std::vector<double> ttfts;
    double tpotSum = 0.0;
    long tpotCount = 0;
    std::int64_t genTokens = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& req = requests[i];
        if (!req.completed())
            continue;
        ++report.completed;
        const double lat = req.latencySec();
        latencies.push_back(lat);
        report.maxLatencySec = std::max(report.maxLatencySec, lat);
        report.horizonSec =
            std::max(report.horizonSec, req.completionSec);
        if (req.sloViolated())
            ++report.sloViolations;
        if (req.preempted) {
            ++report.preemptedRequests;
            preemptedLatencies.push_back(lat);
        }
        if (req.outputTokens > 0) {
            ++report.llmRequests;
            genTokens += req.outputTokens;
            ttfts.push_back(req.ttftSec());
            if (req.outputTokens > 1) {
                tpotSum += (req.completionSec - req.firstTokenSec) /
                           (req.outputTokens - 1);
                ++tpotCount;
            }
        }
        if (req.modelIdx < 0 ||
            req.modelIdx >= static_cast<int>(modelNames.size()))
            continue;
        ModelServingBreakdown& mb = report.perModel[req.modelIdx];
        ++mb.completed;
        if (req.sloViolated())
            ++mb.sloViolations;
        members[req.modelIdx].push_back(i);
    }
    if (!preemptedLatencies.empty())
        report.preemptedP99Sec =
            percentileSec(std::move(preemptedLatencies), 99.0);
    if (report.llmRequests > 0) {
        report.meanTtftSec =
            std::accumulate(ttfts.begin(), ttfts.end(), 0.0) /
            report.llmRequests;
        report.p99TtftSec = percentileSec(std::move(ttfts), 99.0);
    }
    if (tpotCount > 0)
        report.meanTpotSec = tpotSum / tpotCount;
    if (report.horizonSec > 0.0) {
        report.genTokensPerSec = genTokens / report.horizonSec;
        report.throughputRps = report.completed / report.horizonSec;
    }
    if (report.completed > 0) {
        summarize(latencies, report.meanLatencySec, report.p50LatencySec,
                  report.p95LatencySec, report.p99LatencySec);
        report.sloViolationRate =
            static_cast<double>(report.sloViolations) / report.completed;
    }
    if (paddedSlots > 0)
        report.batchOccupancy =
            static_cast<double>(report.completed) / paddedSlots;

    // Each model's samples are rebuilt from its member indices into one
    // scratch buffer, so one sample is held at a time.
    std::vector<double> sample;
    for (std::size_t m = 0; m < modelNames.size(); ++m) {
        ModelServingBreakdown& mb = report.perModel[m];
        mb.modelIdx = static_cast<int>(m);
        mb.name = modelNames[m];
        if (mb.completed == 0)
            continue;
        const auto fill = [&](double (Request::*value)() const)
            -> std::vector<double>& {
            sample.clear();
            for (const std::size_t i : members[m])
                sample.push_back((requests[i].*value)());
            return sample;
        };
        summarize(fill(&Request::latencySec), mb.meanLatencySec,
                  mb.p50LatencySec, mb.p95LatencySec, mb.p99LatencySec);
        summarize(fill(&Request::queueSec), mb.meanQueueSec,
                  mb.p50QueueSec, mb.p95QueueSec, mb.p99QueueSec);
        summarize(fill(&Request::execSec), mb.meanExecSec,
                  mb.p50ExecSec, mb.p95ExecSec, mb.p99ExecSec);
    }
    return report;
}

} // namespace runtime
} // namespace scar
