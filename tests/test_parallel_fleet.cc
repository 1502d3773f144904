/**
 * @file
 * Tests for the fleet's event-calendar machinery: golden end-to-end
 * runs pinning the calendar fast-forward (report, trace, samples, and
 * metrics of plain, preemptive, and LLM continuous/static fleets must
 * match goldens captured from the pre-fast-forward engine byte for
 * byte), the boundary probes behind its conservative bound (the
 * join/release terms land exactly on their cuts), the hierarchical
 * cluster -> pod -> shard routing index that routes every dispatch
 * (a routing-matrix golden over fleet kinds, policies and
 * preemption pins its decisions and routing-quality counters), an
 * event-loop matrix golden over LLM batching, preemption and
 * speculation on an LLM + CNN catalog, and the
 * AsyncScheduleCache behind it (exactly one solve per key under
 * concurrent callers, idempotent prefetch).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "golden_file.h"

#include "arch/mcm_templates.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "eval/reporter.h"
#include "obs/flight_recorder.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace runtime
{
namespace
{

std::vector<ServedModel>
twoModelCatalog()
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.05;
    return catalog;
}

/** Every observable artifact of one fleet run, rendered to text so
 *  equality checks are byte-for-byte, not field-by-field. */
struct RunArtifacts
{
    std::string report;
    std::string traceJson;
    std::string metricsJson;
    std::string metricsCsv;
    std::string samplesCsv;
    /** The run's routing.deferrals counter (not part of equality:
     *  the metrics export already carries it). */
    long long deferrals = 0;

    bool operator==(const RunArtifacts& o) const
    {
        return report == o.report && traceJson == o.traceJson &&
               metricsJson == o.metricsJson &&
               metricsCsv == o.metricsCsv &&
               samplesCsv == o.samplesCsv;
    }
};

RunArtifacts
runFleet(FleetOptions options, const std::vector<ServedModel>& catalog,
         const std::vector<Request>& trace,
         ServingReport* reportOut = nullptr)
{
    obs::FlightRecorder rec;
    options.recorder = &rec;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    RunArtifacts out;
    const ServingReport report = fleet.run(trace);
    if (reportOut)
        *reportOut = report;
    out.report = describeServingReport(report);
    out.traceJson = rec.trace().toJson();
    out.metricsJson = rec.metrics().toJson();
    out.metricsCsv = rec.metrics().toCsv();
    out.samplesCsv = rec.samples().toCsv();
    // Read after the exports: counter() registers a missing name.
    out.deferrals = rec.metrics().counter("routing.deferrals").value();
    return out;
}

RunArtifacts
runFleet(FleetOptions options, const std::vector<ServedModel>& catalog,
         int requests, unsigned seed, ServingReport* reportOut = nullptr)
{
    return runFleet(std::move(options), catalog,
                    poissonTrace(catalog, requests, seed), reportOut);
}

/** "<bytes> bytes, fnv1a64 <hex>": a compact fingerprint of a large
 *  artifact for a golden file. */
std::string
digest(const std::string& text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zu bytes, fnv1a64 %016" PRIx64,
                  text.size(), h);
    return buf;
}

/** The golden record of a run: the rendered report in full, plus
 *  digests of the trace, samples, and metrics exports. */
std::string
goldenRecord(const RunArtifacts& run)
{
    return run.report + "\ntrace.json: " + digest(run.traceJson) +
           "\nsamples.csv: " + digest(run.samplesCsv) +
           "\nmetrics.json: " + digest(run.metricsJson) + "\n";
}

/** A 4-shard heterogeneous BestFit fleet exercising every calendar
 *  hazard at once: deferral, speculation, solve stalls, switches. */
FleetOptions
hetFleetOptions()
{
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes),
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::NvdlaWS, 64)};
    options.routing = RoutingPolicy::BestFit;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.005;
    return options;
}

TEST(FleetGolden, HeterogeneousBestFitFleet)
{
    golden::checkGolden("fleet_het_bestfit",
                        goldenRecord(runFleet(hetFleetOptions(),
                                              twoModelCatalog(), 400,
                                              17)));
}

TEST(FleetGolden, PreemptiveFleet)
{
    // Preemption arms the urgency bound term: the fast-forward stops
    // strictly before the next deadline-slack crossing and never runs
    // while a replay is suspended. The trace must actually preempt —
    // a bound that silently excluded every tick would still match.
    // At the 10 ms SLO crossings fall between ticks no other term
    // separates, so a fast-forward without the urgency term changes
    // this golden.
    for (const double sloSec : {0.05, 0.01}) {
        auto catalog = twoModelCatalog();
        catalog[0].sloSec = sloSec;
        catalog[1].sloSec = sloSec;
        FleetOptions options = hetFleetOptions();
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = 0.004;
        ServingReport report;
        const RunArtifacts run =
            runFleet(options, catalog, 300, 29, &report);
        EXPECT_GT(report.preemptions, 0)
            << "the trace must exercise urgency crossings";
        golden::checkGolden(sloSec == 0.05 ? "fleet_preempt"
                                           : "fleet_preempt_slo10ms",
                            goldenRecord(run));
    }
}

TEST(FleetGolden, TightSloUrgencyCrossing)
{
    // A tight SLO puts the urgency crossing in front of the next
    // replay end and the batching timer, so the urgency term is the
    // binding one: a crossing swallowed into a longer fast-forward
    // and noticed late would move preemptions and latencies.
    auto catalog = twoModelCatalog();
    catalog[0].sloSec = 0.006;
    catalog[1].sloSec = 0.006;
    FleetOptions options = hetFleetOptions();
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.002;
    ServingReport report;
    const RunArtifacts run = runFleet(options, catalog, 300, 29, &report);
    EXPECT_GT(report.preemptions, 0);
    golden::checkGolden("fleet_preempt_tight_slo", goldenRecord(run));
}

TEST(FleetGolden, HomogeneousPreemptiveSpeculativeFleet)
{
    // Many identical shards — a single routing pod — under preemptive
    // BestFit with speculative solves: urgent and regular dispatches
    // fold over the pod's class heads and the idle shards owing a
    // resume, and every speculation target probes the one cache.
    auto catalog = twoModelCatalog();
    for (ServedModel& sm : catalog) {
        sm.rateRps *= 1.5;
        sm.sloSec = 0.03;
    }
    FleetOptions options;
    options.shards = 8;
    options.routing = RoutingPolicy::BestFit;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.005;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.004;
    ServingReport report;
    const RunArtifacts run = runFleet(options, catalog, 500, 41, &report);
    EXPECT_GT(report.preemptions, 0);
    golden::checkGolden("fleet_preempt_homog_shared", goldenRecord(run));
}

/** One-model LLM catalog around a deliberately small decoder. */
std::vector<ServedModel>
llmChatCatalog(int batchCap)
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    std::vector<ServedModel> catalog(1);
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = batchCap;
    catalog[0].rateRps = 100.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 32;
    return catalog;
}

TEST(FleetGolden, LlmContinuousAndStaticFleets)
{
    // The join term stops the fast-forward before the next
    // step-aligned cut while decode waiters exist, and the release
    // term before the earliest mid-replay autoregressive completion.
    const auto catalog = llmChatCatalog(/*batchCap=*/4);
    const auto trace = llmPoissonTrace(catalog, 80, 7);
    for (const LlmBatchingMode mode :
         {LlmBatchingMode::Continuous, LlmBatchingMode::Static}) {
        FleetOptions options;
        options.shards = 2;
        options.serving.modeledSolveSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.001;
        options.serving.admission.llmBatching = mode;
        ServingReport report;
        const RunArtifacts run =
            runFleet(options, catalog, trace, &report);
        EXPECT_GT(report.llmDecodeRounds, 0);
        golden::checkGolden(mode == LlmBatchingMode::Continuous
                                ? "fleet_llm_continuous"
                                : "fleet_llm_static",
                            goldenRecord(run));
    }
}

TEST(FleetGolden, JoinLandsExactlyOnTheStepCut)
{
    // B's prefill finishes while A decodes a long stream, so the join
    // must land on a step-aligned boundary of A's in-flight round. An
    // off-by-one-ulp join probe would either fast-forward past the
    // cut tick (losing the join) or cut a step early.
    auto catalog = llmChatCatalog(/*batchCap=*/4);
    auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {0.001, 0}});
    trace[0].promptTokens = 16;
    trace[0].outputTokens = 200; // long generation: many rounds
    trace[1].promptTokens = 16;
    trace[1].outputTokens = 8;

    FleetOptions options;
    options.shards = 2;
    options.serving.admission.llmBatching =
        LlmBatchingMode::Continuous;
    options.serving.admission.maxQueueDelaySec = 0.0002;
    ServingReport report;
    const RunArtifacts run = runFleet(options, catalog, trace, &report);
    EXPECT_GE(report.llmJoins, 1)
        << "B must join A's in-flight decode stream";
    golden::checkGolden("fleet_llm_join_cut", goldenRecord(run));
}

TEST(FleetCalendar, BoundaryProbesAreUlpExact)
{
    // The join/release bound terms only work if the probes reproduce
    // advance()'s boundary instants bit for bit: a probe one ulp
    // late lets the fast-forward commit the cut tick itself and skip
    // the join. Awkward window durations make naive
    // start-plus-prefix-sum arithmetic diverge from the executor's
    // left-to-right accumulation.
    //
    // A 3-step decode round over a 2-window step schedule: the
    // executor tiles the step, so its tiled windows 1 and 3 end steps.
    CachedSchedule step;
    step.lastWindow = {1};
    for (const double cycles : {333.3e6, 77.7e6}) {
        step.windowSec.push_back(cyclesToSeconds(cycles));
        step.makespanSec += step.windowSec.back();
    }

    Dispatch dispatch;
    dispatch.llmDecodeSteps = 3;
    BatchGroup g;
    g.catalogIdx = 0;
    g.batch = 1;
    Request r;
    r.id = 0;
    r.modelIdx = 0;
    r.arrivalSec = 0.0;
    g.requests = {r};
    dispatch.groups = {g};

    ReplayExecutor executor;
    executor.start(std::make_shared<CachedSchedule>(step), dispatch,
                   0.1234567);
    ASSERT_EQ(executor.windowsRemaining(), 6u);
    ASSERT_EQ(executor.windowsPerStep(), 2u);

    // Crosses every boundary strictly before `bound` — what the
    // fleet's fast-forward does — and returns how many it crossed.
    const auto advanceBefore = [&](double bound) {
        int crossed = 0;
        for (; executor.nextBoundarySec() < bound; ++crossed)
            executor.advance();
        return crossed;
    };

    // With 2 windows per step, the step-aligned cuts follow windows 1
    // and 3; window 5 is the final boundary and must never be a cut.
    const double cut1 = executor.nextStepBoundarySec();
    EXPECT_EQ(advanceBefore(cut1), 1)
        << "the cut tick itself must stay outside the fast-forward";
    WindowTick tick = executor.advance();
    EXPECT_EQ(tick.windowIdx, 1);
    EXPECT_EQ(tick.timeSec, cut1)
        << "join probe must match the tick instant bit for bit";

    const double cut2 = executor.nextStepBoundarySec();
    EXPECT_GT(cut2, cut1);
    EXPECT_EQ(advanceBefore(cut2), 1);
    tick = executor.advance();
    EXPECT_EQ(tick.windowIdx, 3);
    EXPECT_EQ(tick.timeSec, cut2);

    // Past the last step-aligned cut only the final (dispatch-done)
    // boundary remains, which the replay-end term already covers.
    EXPECT_EQ(executor.nextStepBoundarySec(),
              std::numeric_limits<double>::infinity());

    // The release probe lands on the group's last-window boundary on
    // the same exact clock, and an empty predicate selects nothing.
    EXPECT_EQ(executor.earliestGroupEndSec(
                  [](std::size_t) { return true; }),
              executor.finalBoundarySec());
    EXPECT_EQ(executor.earliestGroupEndSec(
                  [](std::size_t) { return false; }),
              std::numeric_limits<double>::infinity());
}

/** The routing-matrix fleet kinds: heterogeneous templates (a pod
 *  per template), 6 identical shards (a single pod), and two
 *  alternating templates three shards each (two 3-shard pods). */
FleetOptions
matrixFleet(const std::string& kind)
{
    FleetOptions options = hetFleetOptions();
    if (kind == "het4")
        return options;
    options.shardTemplates.clear();
    if (kind == "het6") {
        for (int i = 0; i < 3; ++i) {
            options.shardTemplates.push_back(
                templates::hetSides3x3(templates::kArvrPes));
            options.shardTemplates.push_back(templates::simba3x3(
                Dataflow::ShiOS, templates::kArvrPes));
        }
        return options;
    }
    options.shards = 6;
    return options;
}

TEST(FleetRouting, RoutingMatrixIsPinned)
{
    // One digest line (report, trace, samples, metrics) per fleet
    // kind x policy x preemption off / slack {0.02, 0.04} x seed,
    // captured while preemptive fleets still routed on a flat O(N)
    // shard scan: every routing decision — urgent candidates on
    // suspended shards, deferral past shards owing a resume, the
    // routing-quality counters — must stay byte-identical. The
    // "homog6-shared" and "defer=1" labels name configurations whose
    // alternatives were deleted; they stay so the rows stay put.
    // ~3 s in Release, about a minute under the sanitizers, whose
    // builds run the fleets (and their run invariants) but skip the
    // comparison.
    std::string matrix;
    const auto addRow = [&](const std::string& label,
                            const FleetOptions& options,
                            const std::vector<ServedModel>& catalog,
                            int requests, unsigned seed) {
        ServingReport report;
        const RunArtifacts run =
            runFleet(options, catalog, requests, seed, &report);
        matrix += label + " seed=" + std::to_string(seed) +
                  " preemptions=" + std::to_string(report.preemptions) +
                  ": " + digest(goldenRecord(run)) + "\n";
    };
    const auto catalog = twoModelCatalog();
    for (const std::string kind : {"het4", "homog6-shared"}) {
        for (const RoutingPolicy policy :
             {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
              RoutingPolicy::MixAffinity, RoutingPolicy::BestFit}) {
            for (const auto& [slack, preemptLabel] :
                 {std::pair<double, const char*>{0.0, "no-preempt"},
                  {0.02, "slack=0.02"},
                  {0.04, "slack=0.04"}}) {
                FleetOptions options = matrixFleet(kind);
                options.routing = policy;
                options.serving.preemption.enabled = slack > 0.0;
                options.serving.preemption.slackThresholdSec = slack;
                const std::string label = kind + " " +
                                          routingPolicyName(policy) +
                                          " " + preemptLabel + " defer=1";
                for (const unsigned seed : {3u, 5u})
                    addRow(label, options, catalog, 100, seed);
            }
        }
    }
    // Deferral past shards owing a resume: a suspended shard parked
    // at the head of its pod's occupied index would hide a cheaper
    // same-class shard behind it, which changes these runs (and none
    // of the rows above).
    struct TailRow
    {
        const char* label;
        double slack;
        double resumeSec;
        unsigned seed;
    };
    for (const TailRow& row :
         {TailRow{"slack=0.04 resume=0", 0.04, 0.0, 6u},
          TailRow{"slack=0.02 resume=0.01", 0.02, 0.01, 3u}}) {
        FleetOptions options = matrixFleet("het6");
        options.serving.preemption.enabled = true;
        options.serving.preemption.slackThresholdSec = row.slack;
        options.serving.preemption.resumeOverheadSec = row.resumeSec;
        addRow(std::string("het6 best-fit ") + row.label + " defer=1",
               options, catalog, 200, row.seed);
    }
    // The configurations the flat-vs-indexed A/B tests compared.
    addRow("ab het4 best-fit defer=1", hetFleetOptions(), catalog, 400,
           11);
    for (const RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::MixAffinity}) {
        FleetOptions options = hetFleetOptions();
        options.routing = policy;
        addRow(std::string("ab het4 ") + routingPolicyName(policy),
               options, catalog, 300, 23);
    }
    golden::checkGolden("fleet_routing_matrix", matrix);
}

/** The chat decoder next to a deadline-carrying CNN: prefill, decode
 *  and CNN batches compete for the same shards, and both models have
 *  SLOs, so urgency and preemption reach LLM replays too. */
std::vector<ServedModel>
llmCnnCatalog()
{
    std::vector<ServedModel> catalog = llmChatCatalog(/*batchCap=*/4);
    catalog[0].rateRps = 300.0;
    catalog[0].sloSec = 0.08;
    ServedModel cnn;
    cnn.model = zoo::eyeCod(4);
    cnn.rateRps = 400.0;
    cnn.sloSec = 0.012;
    catalog.push_back(std::move(cnn));
    return catalog;
}

TEST(FleetLoop, EventLoopMatrixIsPinned)
{
    // One digest line (report, trace, samples, metrics) per
    // combination of the event loop's handlers no other golden pins
    // together: LLM continuous / static batching x preemption off /
    // on, on an LLM + CNN catalog with deadlines. The handler counters
    // print on each row so a handler no row exercises shows up as a
    // column of zeros. The "speculative=1" and "partial=0" labels name
    // the speculative solve pipeline and the timer-paced dispatch, the
    // only ones left; they stay so the rows stay put.
    const auto catalog = llmCnnCatalog();
    const auto trace = llmPoissonTrace(catalog, 150, 13);
    std::string matrix;
    const auto addRow = [&](const std::string& label,
                            const FleetOptions& options) {
        ServingReport report;
        const RunArtifacts run =
            runFleet(options, catalog, trace, &report);
        matrix += label +
                  " preemptions=" + std::to_string(report.preemptions) +
                  " joins=" + std::to_string(report.llmJoins) +
                  " decodeRounds=" +
                  std::to_string(report.llmDecodeRounds) +
                  " deferrals=" + std::to_string(run.deferrals) + ": " +
                  digest(goldenRecord(run)) + "\n";
    };
    const auto baseOptions = []() {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.003;
        options.serving.switchOverheadSec = 0.001;
        options.serving.admission.maxQueueDelaySec = 0.002;
        options.serving.preemption.slackThresholdSec = 0.01;
        options.serving.preemption.resumeOverheadSec = 0.0005;
        return options;
    };
    for (const LlmBatchingMode mode :
         {LlmBatchingMode::Continuous, LlmBatchingMode::Static}) {
        for (const bool preempt : {false, true}) {
            FleetOptions options = baseOptions();
            options.serving.admission.llmBatching = mode;
            options.serving.preemption.enabled = preempt;
            addRow(std::string(mode == LlmBatchingMode::Continuous
                                   ? "continuous"
                                   : "static") +
                       " preempt=" + std::to_string(preempt) +
                       " speculative=1 partial=0",
                   options);
        }
    }
    golden::checkGolden("fleet_event_loop_matrix", matrix);
}

TEST(FleetRouting, BestFitKeepsCostOptimalityCounters)
{
    const auto catalog = twoModelCatalog();
    FleetOptions options = hetFleetOptions();
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const auto trace = poissonTrace(catalog, 400, 31);
    const ServingReport report = fleet.run(trace);
    // BestFit is cost-optimal by construction: every contested pick
    // is a cheapest candidate.
    EXPECT_GT(report.contestedRoutes, 0);
    EXPECT_EQ(report.costOptimalRoutes, report.contestedRoutes);
    EXPECT_DOUBLE_EQ(report.costOptimalRouteFrac, 1.0);
}

// ---- AsyncScheduleCache --------------------------------------------

Scenario
mixNamed(const std::string& name, int batch)
{
    Scenario sc;
    sc.name = name;
    sc.models = {zoo::eyeCod(batch)};
    return sc;
}

ScheduleResult
stubSchedule(const Scenario& mix)
{
    ScheduleResult result;
    ScheduledWindow sw;
    sw.cost.latencyCycles = 1000.0;
    for (int m = 0; m < mix.numModels(); ++m) {
        ModelPlacement mp;
        mp.modelIdx = m;
        mp.segments.push_back(
            {LayerRange{0, mix.models[m].numLayers() - 1}, m});
        sw.placement.models.push_back(mp);
    }
    result.windows.push_back(sw);
    return result;
}

TEST(AsyncScheduleCache, SolvesExactlyOncePerKeyUnderConcurrency)
{
    ThreadPool pool(4);
    AsyncScheduleCache cache(pool);
    std::atomic<int> solves{0};
    const auto compute = [&](const Scenario& mix) {
        ++solves;
        return stubSchedule(mix);
    };

    // 8 distinct keys, 4 racing callers per key, each a dispatch-time
    // lookup then a join: each key must solve exactly once (the solve
    // runs outside the cache lock) and every caller must see the same
    // entry.
    constexpr int kKeys = 8;
    constexpr int kCallers = 4;
    std::vector<std::shared_ptr<const CachedSchedule>> seen(
        kKeys * kCallers);
    ThreadPool callers(8);
    callers.parallelFor(
        static_cast<std::size_t>(kKeys * kCallers),
        [&](std::size_t i) {
            const int key = static_cast<int>(i) % kKeys;
            const Scenario mix =
                mixNamed("mix" + std::to_string(key), key + 1);
            const std::string sig = mix.signature();
            cache.lookup(sig, [&]() -> const Scenario& { return mix; },
                         compute, 0.0, 0.5);
            seen[i] = cache.join(sig);
        });
    EXPECT_EQ(solves.load(), kKeys);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
    for (int key = 0; key < kKeys; ++key)
        for (int c = 1; c < kCallers; ++c)
            EXPECT_EQ(seen[key], seen[c * kKeys + key])
                << "caller " << c << " of key " << key
                << " saw a different entry";

    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, kKeys);
    EXPECT_EQ(stats.hits + stats.misses, kKeys * kCallers);
}

TEST(AsyncScheduleCache, PrefetchLookupJoinAcrossKeys)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    std::atomic<int> solves{0};
    const auto compute = [&](const Scenario& mix) {
        ++solves;
        return stubSchedule(mix);
    };
    std::vector<Scenario> mixes;
    for (int k = 0; k < 6; ++k)
        mixes.push_back(mixNamed("pf" + std::to_string(k), k + 1));
    const auto lazy = [&](int k) {
        return [&mixes, k]() -> const Scenario& { return mixes[k]; };
    };

    for (int k = 0; k < 6; ++k)
        cache.prefetch(mixes[k].signature(), lazy(k), compute, 0.5);
    // Idempotent per key: a stored or in-flight key never re-solves.
    for (int k = 0; k < 6; ++k)
        cache.prefetch(mixes[k].signature(), lazy(k), compute, 0.5);
    cache.drainInFlight();
    EXPECT_EQ(solves.load(), 6);
    EXPECT_EQ(cache.size(), 6u);

    // lookup() serves the drained entries as hits.
    for (int k = 0; k < 6; ++k) {
        const AsyncLookup found = cache.lookup(
            mixes[k].signature(), lazy(k), compute, 1.0, 0.25);
        EXPECT_NE(found.schedule, nullptr);
        EXPECT_FALSE(found.startedSolve);
        EXPECT_DOUBLE_EQ(found.readySec, 1.0);
    }
    EXPECT_EQ(solves.load(), 6);
    EXPECT_EQ(cache.stats().hits, 6);
}

} // namespace
} // namespace runtime
} // namespace scar
