/**
 * @file
 * Serving-quality metrics aggregated over one simulated run: the
 * online counterpart of eval/metrics.h's offline Metrics.
 *
 * Latency percentiles follow the serving-benchmark convention
 * (MLPerf server scenario): per-request end-to-end latency from
 * arrival to completion, ranked; pX is the smallest observed latency
 * with at least X% of requests at or below it.
 */

#ifndef SCAR_RUNTIME_SERVING_REPORT_H
#define SCAR_RUNTIME_SERVING_REPORT_H

#include <string>
#include <vector>

#include "runtime/request.h"
#include "runtime/schedule_cache.h"

namespace scar
{
namespace runtime
{

/** Per-package accounting in a fleet run. */
struct ShardReport
{
    int shardIdx = 0;
    /** Display name of the shard's MCM template (heterogeneous
     *  fleets list different names per row). */
    std::string mcmName;
    long dispatches = 0;
    double busySec = 0.0;        ///< virtual time spent replaying
    double utilization = 0.0;    ///< busySec / report horizon
    /** Virtual idle time spent waiting for a schedule solve. */
    double solveStallSec = 0.0;
    /** Modeled weight re-staging paid on mix switches. */
    double switchOverheadSec = 0.0;
    /** Replays suspended at a window boundary for an urgent batch. */
    long preemptions = 0;
};

/**
 * Per-model latency decomposition: end-to-end latency split into the
 * queue-wait component (arrival -> batch dispatch) and the execution
 * component (dispatch -> completion, replay time plus any suspension
 * gap). Queue wait is where batching policy and routing show up;
 * execution is where the schedule and preemption do — the split tells
 * which knob an SLO miss is charged to.
 */
struct ModelServingBreakdown
{
    int modelIdx = -1;    ///< catalog index
    std::string name;     ///< catalog model name
    long completed = 0;
    long sloViolations = 0;

    double meanLatencySec = 0.0;
    double p50LatencySec = 0.0;
    double p95LatencySec = 0.0;
    double p99LatencySec = 0.0;

    double meanQueueSec = 0.0;
    double p50QueueSec = 0.0;
    double p95QueueSec = 0.0;
    double p99QueueSec = 0.0;

    double meanExecSec = 0.0;
    double p50ExecSec = 0.0;
    double p95ExecSec = 0.0;
    double p99ExecSec = 0.0;
};

/** Aggregate serving statistics for one simulated stream. */
struct ServingReport
{
    long offered = 0;      ///< requests in the input stream
    long completed = 0;    ///< requests that finished
    long dispatches = 0;   ///< co-scheduled batches executed
    double horizonSec = 0.0; ///< virtual time at last completion

    double throughputRps = 0.0; ///< completed / horizon

    double meanLatencySec = 0.0;
    double p50LatencySec = 0.0;
    double p95LatencySec = 0.0;
    double p99LatencySec = 0.0;
    double maxLatencySec = 0.0;

    long sloViolations = 0;
    double sloViolationRate = 0.0; ///< violations / completed

    ScheduleCacheStats cache; ///< misses == Scar::run invocations
    long uniqueMixes = 0;     ///< cached schedules across all shards

    /** Mean dispatched-batch occupancy: requests / padded slots. */
    double batchOccupancy = 0.0;

    /** Per-model queue-wait vs execution latency split. Filled when
     *  summarizeServing gets model names; empty keeps the rendered
     *  report byte-identical to the pre-breakdown format. */
    std::vector<ModelServingBreakdown> perModel;

    /** Per-shard accounting (one entry per MCM package). */
    std::vector<ShardReport> shards;
    /** Fleet totals of the per-shard stall/overhead columns. */
    double solveStallSec = 0.0;
    double switchOverheadSec = 0.0;

    // Routing quality: of the dispatches where the routing policy had
    // a real choice (>= 2 idle candidate shards), how many went to a
    // candidate the BestFit cost model also ranks cheapest. 1.0 for
    // BestFit by construction; for the heuristic policies the gap
    // measures completion time left on the table — most visible on
    // heterogeneous fleets where shards run the same mix at different
    // speeds.
    long contestedRoutes = 0;
    long costOptimalRoutes = 0;
    double costOptimalRouteFrac = 1.0; ///< 1.0 when uncontested

    // Boundary preemption (runtime/executor.h). preemptionEnabled
    // gates the extra reporter rows so a run with preemption disabled
    // renders byte-identically to the pre-preemption reports.
    bool preemptionEnabled = false;
    /** Replays suspended at a window boundary across all shards. */
    long preemptions = 0;
    /** Modeled weight re-staging charged when suspended replays
     *  resumed. */
    double resumeOverheadSec = 0.0;
    /** Completed requests whose replay was suspended at least once. */
    long preemptedRequests = 0;
    /** p99 latency over just those requests — the tail the preempted
     *  (typically datacenter) traffic pays for the urgent fast lane. */
    double preemptedP99Sec = 0.0;

    // Autoregressive serving (runtime/request.h LlmProfile).
    // llmEnabled gates the extra reporter rows so a run without LLM
    // catalog entries renders byte-identically to the pre-LLM format.
    bool llmEnabled = false;
    /** Completed autoregressive requests (outputTokens > 0). */
    long llmRequests = 0;
    /** Decode rounds dispatched across all shards. */
    long llmDecodeRounds = 0;
    /** Continuous-batching join cuts (suspend + merged re-dispatch). */
    long llmJoins = 0;
    /** Mean riders per decode round (decode-batch occupancy). */
    double llmMeanDecodeBatch = 0.0;
    /** Time-to-first-token stats over completed LLM requests. */
    double meanTtftSec = 0.0;
    double p99TtftSec = 0.0;
    /** Mean time-per-output-token past the first (decode cadence). */
    double meanTpotSec = 0.0;
    /** Generated tokens per virtual second over the run horizon. */
    double genTokensPerSec = 0.0;
};

/**
 * Empirical percentile of a latency sample (p in [0, 100]), using the
 * nearest-rank definition. Returns 0 for an empty sample.
 */
double percentileSec(std::vector<double> latencies, double p);

/**
 * Builds the report from completed per-request records and the run's
 * cache statistics, with one queue-wait vs execution latency
 * breakdown per catalog model in ServingReport::perModel.
 * @param requests completed requests (records with completionSec set)
 * @param offered size of the input stream
 * @param dispatches number of executed dispatches
 * @param paddedSlots total dispatched batch slots (incl. padding)
 * @param cacheStats schedule-cache counters after the run
 * @param uniqueMixes distinct mixes scheduled
 * @param modelNames catalog model names; modelIdx indexes this list
 *        (empty leaves perModel empty)
 */
ServingReport summarizeServing(const std::vector<Request>& requests,
                               long offered, long dispatches,
                               long paddedSlots,
                               const ScheduleCacheStats& cacheStats,
                               long uniqueMixes,
                               const std::vector<std::string>& modelNames);

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_SERVING_REPORT_H
