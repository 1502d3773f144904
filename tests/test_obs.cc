/**
 * @file
 * Tests for the flight recorder: histogram bucket math, metrics
 * export, the virtual-time sampler, Chrome trace-event JSON shape,
 * fleet-trace determinism across solver thread counts, the
 * zero-overhead-when-off contract, and the Scar solve profile.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "arch/mcm_templates.h"
#include "eval/reporter.h"
#include "eval/scenario_suite.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/solve_profile.h"
#include "obs/trace.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

// ---- Histogram bucket correctness ----------------------------------

TEST(ObsHistogram, BucketIndexFollowsGeometricBounds)
{
    obs::HistogramOptions opts;
    opts.firstBucketUpper = 1.0;
    opts.growth = 2.0;
    opts.buckets = 4; // bounds: 1, 2, 4, 8 (+overflow into last)
    obs::Histogram h(opts);
    EXPECT_EQ(h.bucketIndex(0.0), 0);   // below the layout
    EXPECT_EQ(h.bucketIndex(1.0), 0);   // inclusive upper bound
    EXPECT_EQ(h.bucketIndex(1.0001), 1);
    EXPECT_EQ(h.bucketIndex(2.0), 1);
    EXPECT_EQ(h.bucketIndex(4.0), 2);
    EXPECT_EQ(h.bucketIndex(8.0), 3);
    EXPECT_EQ(h.bucketIndex(1e9), 3);   // overflow absorbed by last
    EXPECT_DOUBLE_EQ(h.bucketUpper(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketUpper(2), 4.0);
}

TEST(ObsHistogram, CountsSumAndExtremaTrackRecords)
{
    obs::Histogram h;
    h.record(0.5);
    h.record(1.5);
    h.record(0.25);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 2.25);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.25);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1.5);
    EXPECT_DOUBLE_EQ(h.mean(), 0.75);
    long long bucketTotal = 0;
    for (long long c : h.bucketCounts())
        bucketTotal += c;
    EXPECT_EQ(bucketTotal, 3);
}

TEST(ObsHistogram, PercentileIsBucketUpperClampedToMax)
{
    obs::HistogramOptions opts;
    opts.firstBucketUpper = 1.0;
    opts.growth = 2.0;
    opts.buckets = 8;
    obs::Histogram h(opts);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0); // empty
    for (int i = 0; i < 99; ++i)
        h.record(0.5); // bucket 0, upper bound 1.0
    h.record(100.0);   // one outlier in the tail
    // p50 lands in bucket 0: reported as its upper bound.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 1.0);
    // p100 would report the tail bucket's upper bound (128), but the
    // estimate is clamped to the true observed max.
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

// ---- Metrics registry ----------------------------------------------

TEST(ObsMetrics, InstrumentsAreStableAndExportDeterministically)
{
    obs::MetricsRegistry reg;
    obs::Counter& c = reg.counter("b.count");
    c.inc();
    reg.counter("a.count").inc(41);
    c.inc(); // same instrument as the first call
    reg.gauge("g.util").set(0.5);
    reg.histogram("h.lat").record(0.01);

    EXPECT_EQ(reg.counter("b.count").value(), 2);
    EXPECT_EQ(reg.counter("a.count").value(), 41);

    const std::string json = reg.toJson();
    // Name-ordered export: "a.count" renders before "b.count".
    EXPECT_LT(json.find("a.count"), json.find("b.count"));
    EXPECT_NE(json.find("g.util"), std::string::npos);
    EXPECT_NE(json.find("h.lat"), std::string::npos);

    const std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("counter,a.count,value,41"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h.lat,count,1"), std::string::npos);
    EXPECT_EQ(reg.toJson(), json); // repeated export is stable
}

TEST(ObsSampler, SampleAndHoldStampsScheduledInstants)
{
    obs::TimeSeriesSampler sampler(0.5);
    sampler.setColumns({"x"});
    EXPECT_TRUE(sampler.due(0.0)); // first sample at t = 0
    sampler.push({1.0});
    EXPECT_FALSE(sampler.due(0.49));
    EXPECT_TRUE(sampler.due(0.5));
    sampler.push({2.0});
    // A large event gap leaves several samples due; each push stamps
    // the *scheduled* instant, not the event time.
    EXPECT_TRUE(sampler.due(2.0));
    sampler.push({3.0});
    ASSERT_EQ(sampler.rows().size(), 3u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0][0], 0.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1][0], 0.5);
    EXPECT_DOUBLE_EQ(sampler.rows()[2][0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[2][1], 3.0);
    const std::string csv = sampler.toCsv();
    EXPECT_EQ(csv.compare(0, 9, "timeSec,x"), 0);
}

// ---- Trace recorder JSON shape -------------------------------------

/** Counts non-overlapping occurrences of `needle` in `hay`. */
int
countOf(const std::string& hay, const std::string& needle)
{
    int n = 0;
    std::size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

TEST(ObsTrace, EmitsChromeTraceEventShapes)
{
    obs::TraceRecorder trace;
    trace.setThreadName(1, "shard 0");
    trace.completeVirtual(1, "w0", "replay", 0.001, 0.002,
                          {obs::argInt("window", 0)});
    trace.instantVirtual(1, "preempt", "preemption", 0.003);
    trace.counterVirtual("queue_depth", 0.0, 3.0);
    trace.asyncBeginVirtual(7, "req a", "request", 0.0005,
                            {obs::argText("model", "a")});
    trace.asyncInstantVirtual(7, "dispatch", "request", 0.001);
    trace.asyncEndVirtual(7, "req a", "request", 0.003);

    const std::string json = trace.toJson();
    EXPECT_EQ(json.compare(0, 15, "{\"traceEvents\":"), 0);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    // Virtual seconds render as microsecond timestamps.
    EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2000.000"), std::string::npos);
    EXPECT_EQ(trace.size(), 6u);
}

// ---- Fleet tracing: determinism + zero-overhead-when-off -----------

std::vector<runtime::ServedModel>
smallCatalog()
{
    std::vector<runtime::ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.05;
    return catalog;
}

struct TracedRun
{
    std::string trace;
    std::string metrics;
    std::string samples;
    std::string report;
};

TracedRun
runTracedFleet(int solverThreads, bool preemptive)
{
    const auto catalog = smallCatalog();
    const auto trace =
        runtime::poissonTrace(catalog, 120, /*seed=*/11);
    obs::FlightRecorder rec;
    runtime::FleetOptions options;
    options.shards = 2;
    options.routing = runtime::RoutingPolicy::BestFit;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    ThreadPool solverPool(solverThreads);
    options.serving.scar.pool = &solverPool;
    if (preemptive) {
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = 0.5;
        options.serving.preemption.resumeOverheadSec = 0.005;
    }
    options.recorder = &rec;
    runtime::FleetSimulator fleet(
        catalog, templates::hetSides3x3(templates::kArvrPes),
        options);
    const runtime::ServingReport report = fleet.run(trace);
    TracedRun out;
    out.trace = rec.trace().toJson();
    out.metrics = rec.metrics().toJson();
    out.samples = rec.samples().toCsv();
    out.report = describeServingReport(report);
    return out;
}

TEST(ObsFleet, TraceIdenticalAcrossSolverThreadCounts)
{
    const TracedRun at1 = runTracedFleet(1, false);
    const TracedRun at4 = runTracedFleet(4, false);
    const TracedRun at8 = runTracedFleet(8, false);
    EXPECT_EQ(at1.trace, at4.trace);
    EXPECT_EQ(at1.trace, at8.trace);
    EXPECT_EQ(at1.metrics, at4.metrics);
    EXPECT_EQ(at1.metrics, at8.metrics);
    EXPECT_EQ(at1.samples, at4.samples);
    EXPECT_EQ(at1.samples, at8.samples);
}

TEST(ObsFleet, TraceCapturesRequestLifecycleAndReplays)
{
    const TracedRun run = runTracedFleet(1, false);
    // Every request's async track opens and closes; dispatch instants
    // ride inside. 120 arrivals, all completed (no trace truncation).
    EXPECT_EQ(countOf(run.trace, "\"ph\":\"b\""), 120);
    EXPECT_EQ(countOf(run.trace, "\"ph\":\"e\""), 120);
    EXPECT_EQ(countOf(run.trace, "\"name\":\"dispatch\""), 120);
    // Replay window spans on shard tracks, and at least one solve
    // landed as a cache miss before any hit.
    EXPECT_GT(countOf(run.trace, "\"cat\":\"replay\""), 0);
    EXPECT_GT(countOf(run.trace, "\"name\":\"cache-miss\""), 0);
    // The sampler exported the declared columns.
    EXPECT_EQ(run.samples.compare(0, 8, "timeSec,"), 0);
    EXPECT_NE(run.samples.find("queue_depth"), std::string::npos);
    EXPECT_NE(run.samples.find("shard1_busy"), std::string::npos);
}

TEST(ObsFleet, PreemptiveRunRecordsSuspendAndResume)
{
    const TracedRun run = runTracedFleet(1, true);
    EXPECT_GT(countOf(run.trace, "\"name\":\"preempt\""), 0);
    EXPECT_GT(countOf(run.trace, "\"name\":\"resume\""), 0);
    EXPECT_GT(countOf(run.trace, "\"name\":\"preempted\""), 0);
}

TEST(ObsFleet, RecorderDoesNotChangeTheServingReport)
{
    const auto catalog = smallCatalog();
    const auto trace =
        runtime::poissonTrace(catalog, 120, /*seed=*/11);
    auto reportWith = [&](obs::FlightRecorder* rec) {
        runtime::FleetOptions options;
        options.shards = 2;
        options.routing = runtime::RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.scar.threads = 1;
        options.recorder = rec;
        runtime::FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return describeServingReport(fleet.run(trace));
    };
    obs::FlightRecorder rec;
    EXPECT_EQ(reportWith(nullptr), reportWith(&rec));
}

// ---- Per-model latency breakdown -----------------------------------

TEST(ObsReport, PerModelBreakdownSplitsQueueAndExecution)
{
    std::vector<runtime::Request> requests(2);
    requests[0].id = 0;
    requests[0].modelIdx = 0;
    requests[0].arrivalSec = 0.0;
    requests[0].dispatchSec = 0.25;
    requests[0].completionSec = 1.0;
    requests[1].id = 1;
    requests[1].modelIdx = 1;
    requests[1].arrivalSec = 0.0;
    requests[1].dispatchSec = 0.5;
    requests[1].completionSec = 2.0;
    const runtime::ServingReport report = runtime::summarizeServing(
        requests, 2, 1, 2, runtime::ScheduleCacheStats{}, 1,
        {"alpha", "beta"});
    ASSERT_EQ(report.perModel.size(), 2u);
    EXPECT_EQ(report.perModel[0].name, "alpha");
    EXPECT_EQ(report.perModel[0].completed, 1);
    EXPECT_DOUBLE_EQ(report.perModel[0].p50QueueSec, 0.25);
    EXPECT_DOUBLE_EQ(report.perModel[0].p50ExecSec, 0.75);
    EXPECT_DOUBLE_EQ(report.perModel[0].p99LatencySec, 1.0);
    EXPECT_DOUBLE_EQ(report.perModel[1].meanQueueSec, 0.5);
    EXPECT_DOUBLE_EQ(report.perModel[1].meanExecSec, 1.5);
    // Queue + execution reassembles the end-to-end latency.
    EXPECT_DOUBLE_EQ(report.perModel[1].meanQueueSec +
                         report.perModel[1].meanExecSec,
                     report.perModel[1].meanLatencySec);
    // The renderer exposes the split.
    const std::string text = describeServingReport(report);
    EXPECT_NE(text.find("Per-model latency breakdown"),
              std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
}

// ---- Solve profile on the Table-4 datacenter scenario --------------

TEST(ObsSolveProfile, ProfilesDatacenterSolvePhasesAndCaches)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetSides3x3();
    obs::SolveProfile profile;
    ThreadPool pool(2);
    ScarOptions options;
    options.pool = &pool;
    options.profile = &profile;
    Scar scar(sc, mcm, options);
    const ScheduleResult result = scar.run();

    EXPECT_TRUE(profile.enabled);
    EXPECT_EQ(profile.windows,
              static_cast<std::int64_t>(result.windows.size()));
    EXPECT_GT(profile.totalMs, 0.0);
    EXPECT_GE(profile.totalMs,
              profile.packMs + profile.provisionMs +
                  profile.searchMs - 1.0);
    // The walk's ranking time is timed inside the window search.
    EXPECT_GT(profile.rankMs, 0.0);
    EXPECT_LE(profile.rankMs, profile.searchMs);
    EXPECT_GT(profile.allocationsSearched, 0);
    EXPECT_GT(profile.windowEvals, 0);
    EXPECT_GT(profile.combosPlaced, 0);
    EXPECT_GT(profile.segCandidates, 0);
    // The bound skips most exact scores, never all of them.
    EXPECT_GT(profile.segScored, 0);
    EXPECT_LE(profile.segScored, profile.segCandidates);
    EXPECT_GT(profile.soloHits + profile.soloMisses, 0);
    EXPECT_GT(profile.pathHits + profile.pathMisses, 0);
    EXPECT_GT(profile.costDbRangeQueries, 0);
    EXPECT_GE(profile.soloHitRate(), 0.0);
    EXPECT_LE(profile.soloHitRate(), 1.0);
    EXPECT_GE(profile.costDbRangeRate(), 0.0);
    EXPECT_LE(profile.costDbRangeRate(), 1.0);

    const std::string summary = profile.summary();
    EXPECT_NE(summary.find("pack"), std::string::npos);
    EXPECT_NE(summary.find("search"), std::string::npos);
    EXPECT_NE(summary.find("of which ranking"), std::string::npos);
    EXPECT_NE(summary.find("SoloPricer terms"), std::string::npos);
    EXPECT_NE(summary.find("PathCache"), std::string::npos);
    EXPECT_NE(summary.find("CostDb"), std::string::npos);
    EXPECT_NE(summary.find("segmentations ranked: " +
                           std::to_string(profile.segCandidates) +
                           " (scored exactly: " +
                           std::to_string(profile.segScored) + ")"),
              std::string::npos);
}

TEST(ObsSolveProfile, ProfiledCountersAreExactAtAnyThreadCount)
{
    const Scenario sc = suite::datacenterScenario(4);
    const Mcm mcm = templates::hetSides3x3();
    auto countersAt = [&](int threads) {
        obs::SolveProfile profile;
        ThreadPool pool(threads);
        ScarOptions options;
        options.pool = &pool;
        options.profile = &profile;
        Scar scar(sc, mcm, options);
        scar.run();
        return profile;
    };
    const obs::SolveProfile at1 = countersAt(1);
    const obs::SolveProfile at4 = countersAt(4);
    // Relaxed atomic counts commute: identical totals at any pool
    // size (wall timings are the only run-to-run variant fields).
    // Every SoloPricer is local to one task, so even the split of its
    // term lookups into hits and fills is pool-size independent.
    for (const obs::SolveProfile* profile : {&at1, &at4}) {
        EXPECT_GT(profile->rankMs, 0.0);
        EXPECT_LE(profile->rankMs, profile->searchMs);
    }
    EXPECT_EQ(at1.windows, at4.windows);
    EXPECT_EQ(at1.allocationsSearched, at4.allocationsSearched);
    EXPECT_EQ(at1.windowEvals, at4.windowEvals);
    EXPECT_EQ(at1.combosPlaced, at4.combosPlaced);
    EXPECT_EQ(at1.segCandidates, at4.segCandidates);
    EXPECT_EQ(at1.segScored, at4.segScored);
    EXPECT_EQ(at1.soloHits, at4.soloHits);
    EXPECT_EQ(at1.soloMisses, at4.soloMisses);
    EXPECT_EQ(at1.costDbRangeQueries, at4.costDbRangeQueries);
    EXPECT_EQ(at1.costDbLayerQueries, at4.costDbLayerQueries);
}

TEST(ObsSolveProfile, UnprofiledRunLeavesScheduleUnchanged)
{
    const Scenario sc = suite::arvrScenario(7);
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    auto serialize = [](const ScheduleResult& r) {
        std::string s;
        for (const ScheduledWindow& w : r.windows) {
            s += std::to_string(w.cost.latencyCycles) + "/" +
                 std::to_string(w.cost.energyNj) + ";";
        }
        return s;
    };
    obs::SolveProfile profile;
    ScarOptions plain;
    plain.threads = 1;
    ScarOptions profiled = plain;
    profiled.profile = &profile;
    Scar a(sc, mcm, plain);
    Scar b(sc, mcm, profiled);
    EXPECT_EQ(serialize(a.run()), serialize(b.run()));
    EXPECT_TRUE(profile.enabled);
}

} // namespace
} // namespace scar
