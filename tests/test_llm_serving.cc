/**
 * @file
 * Tests for autoregressive (LLM) serving: the prefill/decode workload
 * builders and their KV-cache footprint, the admission decode queue
 * (boarding, buckets, round planning), decode-round tiling in the
 * executor (differential against the former tiled-schedule path),
 * continuous-batching joins and per-sequence retirement at the fleet
 * level, the byte-identical disabled path, and determinism across
 * worker pools.
 */

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "common/units.h"
#include "eval/reporter.h"
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

/** A deliberately small decoder so schedule solves stay cheap. */
TransformerConfig
tinyDecoder()
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    return cfg;
}

/** One-model LLM catalog around tinyDecoder(). */
std::vector<ServedModel>
llmCatalog(int batchCap)
{
    std::vector<ServedModel> catalog(1);
    TransformerConfig cfg = tinyDecoder();
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

/** A prefill-completed request ready for the decode queue. */
Request
decodeWaiter(std::int64_t id, int prompt, int output)
{
    Request req;
    req.id = id;
    req.modelIdx = 0;
    req.arrivalSec = 0.0;
    req.dispatchSec = 0.0;
    req.promptTokens = prompt;
    req.outputTokens = output;
    req.generatedTokens = 1;
    req.firstTokenSec = 0.001;
    return req;
}

TEST(TransformerBuilder, LengthBucketRoundsUp)
{
    EXPECT_EQ(llmLengthBucket(1, 64), 64);
    EXPECT_EQ(llmLengthBucket(64, 64), 64);
    EXPECT_EQ(llmLengthBucket(65, 64), 128);
    EXPECT_EQ(llmLengthBucket(256, 256), 256);
    EXPECT_EQ(llmLengthBucket(257, 256), 512);
}

TEST(TransformerBuilder, PrefillVariantEmbedsLengthInName)
{
    const TransformerConfig cfg = tinyDecoder();
    const Model prefill = buildPrefillModel(cfg, 128);
    EXPECT_EQ(prefill.name, "chat.prefill128");
    // Same architecture as the encoder build at seqLen = 128.
    TransformerConfig enc = cfg;
    enc.seqLen = 128;
    EXPECT_EQ(prefill.numLayers(), buildTransformer(enc).numLayers());
}

TEST(TransformerBuilder, DecodeStepKvFootprintGrowsWithContext)
{
    const TransformerConfig cfg = tinyDecoder();
    const Model s64 = buildDecodeStepModel(cfg, 64);
    const Model s256 = buildDecodeStepModel(cfg, 256);
    const Model s1024 = buildDecodeStepModel(cfg, 1024);
    EXPECT_EQ(s256.name, "chat.decode256");
    // The fused-MHA weight side carries the KV cache: the priced
    // footprint must grow strictly with the attended context.
    EXPECT_LT(s64.totalWeightBytes(), s256.totalWeightBytes());
    EXPECT_LT(s256.totalWeightBytes(), s1024.totalWeightBytes());
    // Exactly 2 * ctx * d extra weight elements per block per 1
    // context-token delta (coarse granularity, fp16 handled inside
    // totalWeightBytes uniformly, so compare element deltas via two
    // gaps of equal context ratio).
    const double gapA =
        s256.totalWeightBytes() - s64.totalWeightBytes();
    const double gapB =
        s1024.totalWeightBytes() - s256.totalWeightBytes();
    EXPECT_NEAR(gapB / gapA, 4.0, 1e-9)
        << "KV bytes must scale linearly in context length";
}

/**
 * Reference for decode-round tiling: the runtime's former
 * repeatSchedule, kept verbatim (less the Scenario / ScheduleResult
 * copies the replay view no longer carries). It materialized a tiled
 * schedule per decode round; ReplayExecutor now tiles the one-step
 * schedule itself and must replay exactly what a plain replay of this
 * tiled entry replays.
 */
std::shared_ptr<const CachedSchedule>
repeatSchedule(const std::shared_ptr<const CachedSchedule>& step,
               int times)
{
    SCAR_REQUIRE(step != nullptr, "repeatSchedule: null step schedule");
    SCAR_REQUIRE(times >= 1, "repeatSchedule: times must be >= 1");
    if (times == 1)
        return step;
    auto entry = std::make_shared<CachedSchedule>();
    const std::size_t perStep = step->windowSec.size();
    entry->windowSec.reserve(perStep * static_cast<std::size_t>(times));
    // Sequential summation, matching both buildReplayView and the
    // executor's boundary walk bit-for-bit.
    entry->makespanSec = 0.0;
    for (int t = 0; t < times; ++t) {
        for (const double sec : step->windowSec) {
            entry->windowSec.push_back(sec);
            entry->makespanSec += sec;
        }
    }
    entry->lastWindow.assign(
        step->lastWindow.size(),
        static_cast<int>(perStep) * times - 1);
    return entry;
}

/**
 * Reference for the join-cut probe: the former
 * ReplayExecutor::nextStepBoundarySec(windowsPerStep), verbatim, over
 * a plain replay of the tiled entry at cursor `window`.
 */
double
referenceNextStepBoundarySec(const CachedSchedule& tiled,
                             int windowsPerStep, double nextBoundarySec,
                             std::size_t window)
{
    const std::size_t step = static_cast<std::size_t>(windowsPerStep);
    const std::size_t n = tiled.windowSec.size();
    double t = nextBoundarySec;
    for (std::size_t w = window; w + 1 < n; ++w) {
        if ((w + 1) % step == 0)
            return t;
        t += tiled.windowSec[w + 1];
    }
    return std::numeric_limits<double>::infinity();
}

void
expectSameTick(const WindowTick& got, const WindowTick& want)
{
    ASSERT_EQ(got.timeSec, want.timeSec);
    ASSERT_EQ(got.windowIdx, want.windowIdx);
    ASSERT_EQ(got.dispatchDone, want.dispatchDone);
    ASSERT_EQ(got.completed.size(), want.completed.size());
    for (std::size_t i = 0; i < want.completed.size(); ++i) {
        ASSERT_EQ(got.completed[i].id, want.completed[i].id);
        ASSERT_EQ(got.completed[i].completionSec,
                  want.completed[i].completionSec);
        ASSERT_EQ(got.completed[i].preempted,
                  want.completed[i].preempted);
    }
}

/**
 * Differential test of decode-round tiling: seeded one-step schedules
 * of 1-4 windows (cycle counts whose sums round) replayed for 1-9
 * steps, with suspend/resume and join cuts at random step-aligned
 * boundaries. The executor's own tiling must bit-match a plain replay
 * of the reference repeatSchedule entry on every tick, probe, cut and
 * on the busy makespan the fleet books.
 */
TEST(Executor, DecodeTilingMatchesRepeatScheduleReference)
{
    int joins = 0;
    int resumes = 0;
    for (unsigned seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const auto pick = [&](int n) {
            return static_cast<int>(rng() % static_cast<unsigned>(n));
        };
        const auto uniform = [&](double lo, double hi) {
            return std::uniform_real_distribution<double>(lo, hi)(rng);
        };

        const int perStep = 1 + pick(4);
        const int steps = 1 + pick(9);
        const int groups = 1 + pick(3);
        auto step = std::make_shared<CachedSchedule>();
        for (int w = 0; w < perStep; ++w) {
            step->windowSec.push_back(
                cyclesToSeconds(uniform(1.0e5, 5.0e7)));
            step->makespanSec += step->windowSec.back();
        }
        for (int m = 0; m < groups; ++m)
            step->lastWindow.push_back(pick(perStep));
        const auto tiled = repeatSchedule(step, steps);

        Dispatch dispatch;
        for (int m = 0; m < groups; ++m) {
            BatchGroup group;
            group.catalogIdx = m;
            group.batch = 1 + pick(2);
            for (int r = 0; r < group.batch; ++r) {
                Request req;
                req.id = 10 * m + r;
                req.modelIdx = m;
                group.requests.push_back(req);
            }
            dispatch.groups.push_back(std::move(group));
        }
        Dispatch plain = dispatch; // replays the tiled entry as is
        dispatch.llmDecodeSteps = steps;

        ReplayExecutor got;
        ReplayExecutor want;
        const double startSec = uniform(0.0, 1.0);
        got.start(step, dispatch, startSec);
        want.start(tiled, plain, startSec);
        ASSERT_EQ(got.makespanSec(), tiled->makespanSec);
        ASSERT_EQ(got.windowsPerStep(),
                  static_cast<std::size_t>(perStep));

        while (want.busy()) {
            ASSERT_TRUE(got.busy());
            const std::size_t remaining = want.windowsRemaining();
            ASSERT_EQ(got.windowsRemaining(), remaining);
            ASSERT_EQ(got.nextBoundarySec(), want.nextBoundarySec());
            ASSERT_EQ(got.finalBoundarySec(), want.finalBoundarySec());
            ASSERT_EQ(got.nextStepBoundarySec(),
                      referenceNextStepBoundarySec(
                          *tiled, perStep, want.nextBoundarySec(),
                          tiled->windowSec.size() - remaining));
            const int mask = pick(1 << groups);
            const auto selected = [mask](std::size_t m) {
                return ((mask >> m) & 1) != 0;
            };
            ASSERT_EQ(got.earliestGroupEndSec(selected),
                      want.earliestGroupEndSec(selected));

            const WindowTick wantTick = want.advance();
            const WindowTick gotTick = got.advance();
            expectSameTick(gotTick, wantTick);
            if (wantTick.dispatchDone)
                break;
            // Step-aligned cut points only, as the fleet cuts.
            if ((wantTick.windowIdx + 1) % perStep != 0 || pick(3) != 0)
                continue;
            const bool join = pick(2) == 0;
            // A join cut detaches without the preemption mark.
            SuspendedReplay gotCut = got.suspend(!join);
            SuspendedReplay wantCut = want.suspend(!join);
            ASSERT_FALSE(got.busy());
            ASSERT_EQ(gotCut.window, wantCut.window);
            ASSERT_EQ(gotCut.remainingSec, wantCut.remainingSec);
            for (std::size_t m = 0; m < wantCut.dispatch.groups.size();
                 ++m)
                for (std::size_t r = 0;
                     r < wantCut.dispatch.groups[m].requests.size(); ++r)
                    ASSERT_EQ(
                        gotCut.dispatch.groups[m].requests[r].preempted,
                        wantCut.dispatch.groups[m].requests[r].preempted);
            if (join) {
                // The riders re-queue; the round ends here.
                ++joins;
                break;
            }
            const double resumeSec = wantTick.timeSec + uniform(0.0, 0.1);
            got.resume(std::move(gotCut), resumeSec);
            want.resume(std::move(wantCut), resumeSec);
            ++resumes;
        }
        EXPECT_FALSE(got.busy());
    }
    // The seeds must exercise both kinds of cut.
    EXPECT_GT(joins, 20);
    EXPECT_GT(resumes, 20);
}

TEST(Admission, DecodeQueueBoardsAndPlansRounds)
{
    const auto catalog = llmCatalog(/*batchCap=*/4);
    AdmissionController admission(catalog);

    admission.enqueueDecode(decodeWaiter(0, 10, 5));
    admission.enqueueDecode(decodeWaiter(1, 20, 9));
    admission.enqueueDecode(decodeWaiter(2, 30, 60));
    EXPECT_EQ(admission.decodeQueuedCount(), 3);
    EXPECT_EQ(admission.decodeQueuedCount(0), 3);

    // Context bucket: max context = 30 + 1 -> 256; partial batch of 3
    // quantizes up to 4.
    const MixPeek peek = admission.peekDecodeMix(0);
    ASSERT_EQ(peek.numModels(), 1);
    EXPECT_EQ(peek.parts[0].catalogIdx, 0);
    EXPECT_EQ(peek.parts[0].batch, 4);
    EXPECT_EQ(peek.batchSlots, 4);
    const Scenario mix = admission.materialize(peek);
    ASSERT_EQ(mix.numModels(), 1);
    EXPECT_EQ(mix.models[0].name, "chat.decode256");
    EXPECT_EQ(mix.models[0].batch, 4);
    EXPECT_EQ(peek.signature, mix.signature());

    Dispatch dispatch = admission.formDecodeDispatch(0);
    EXPECT_EQ(dispatch.mix.signature, mix.signature());
    EXPECT_EQ(dispatch.mix.parts[0].variant, peek.parts[0].variant);
    // Steps: min over riders' remaining tokens (5-1 = 4), under the
    // 32-step cap and far from the 256 bucket edge.
    EXPECT_EQ(dispatch.llmDecodeSteps, 4);
    ASSERT_EQ(dispatch.groups.size(), 1u);
    ASSERT_EQ(dispatch.groups[0].requests.size(), 3u);
    for (const Request& req : dispatch.groups[0].requests)
        EXPECT_EQ(req.ridingDecodeSteps, 4);
    EXPECT_EQ(admission.decodeQueuedCount(), 0);
}

TEST(Admission, DecodeEnqueueRequiresPrefill)
{
    const auto catalog = llmCatalog(4);
    AdmissionController admission(catalog);
    Request raw = decodeWaiter(0, 10, 5);
    raw.firstTokenSec = -1.0; // prefill not done
    EXPECT_THROW(admission.enqueueDecode(raw), FatalError);
}

/**
 * Continuous batching joins a late sequence into the running decode
 * stream: request B finishes its prefill on the second shard while
 * request A's multi-step decode round replays on the first; at A's
 * next step-aligned boundary the round is cut and the merged batch
 * re-forms. The join counter proves the cut happened, and everyone
 * still completes.
 */
TEST(LlmServing, ContinuousJoinsAtStepBoundary)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    std::vector<std::pair<double, int>> arrivals = {{0.0, 0},
                                                    {0.001, 0}};
    auto trace = traceFromArrivals(catalog, arrivals);
    trace[0].promptTokens = 16;
    trace[0].outputTokens = 200; // long generation: many rounds
    trace[1].promptTokens = 16;
    trace[1].outputTokens = 8;

    FleetOptions options;
    options.shards = 2;
    options.serving.admission.llmBatching =
        LlmBatchingMode::Continuous;
    options.serving.admission.maxQueueDelaySec = 0.0002;
    FleetSimulator fleet(
        catalog, templates::hetSides3x3(templates::kArvrPes),
        options);
    const ServingReport report = fleet.run(trace);

    EXPECT_TRUE(report.llmEnabled);
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.llmRequests, 2);
    EXPECT_GE(report.llmJoins, 1)
        << "B must join A's in-flight decode stream";
    EXPECT_GT(report.llmDecodeRounds, 1);
    EXPECT_GT(report.llmMeanDecodeBatch, 1.0)
        << "post-join rounds carry both riders";
    EXPECT_GT(report.meanTtftSec, 0.0);
    EXPECT_GT(report.genTokensPerSec, 0.0);
    // Every generated token is accounted for.
    for (const Request& req : fleet.records())
        EXPECT_EQ(req.generatedTokens, req.outputTokens);
}

/**
 * Retirement policy: under Static batch-and-replay the short sequence
 * is locked into the long one's batch and retires with it; under
 * continuous batching it leaves at its own final decode round. The
 * short request's completion time is the whole point of the feature.
 */
TEST(LlmServing, ShortSequenceLeavesEarlyOnlyWhenContinuous)
{
    auto catalog = llmCatalog(/*batchCap=*/2);
    std::vector<std::pair<double, int>> arrivals = {{0.0, 0},
                                                    {0.0001, 0}};
    auto makeTrace = [&]() {
        auto trace = traceFromArrivals(catalog, arrivals);
        trace[0].promptTokens = 16;
        trace[0].outputTokens = 4; // short
        trace[1].promptTokens = 16;
        trace[1].outputTokens = 96; // long tail
        return trace;
    };

    auto runWith = [&](LlmBatchingMode mode) {
        FleetOptions options;
        options.shards = 1;
        options.serving.admission.llmBatching = mode;
        options.serving.admission.maxQueueDelaySec = 0.0002;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        fleet.run(makeTrace());
        double shortDone = -1.0;
        double longDone = -1.0;
        for (const Request& req : fleet.records()) {
            if (req.id == 0)
                shortDone = req.completionSec;
            if (req.id == 1)
                longDone = req.completionSec;
        }
        return std::make_pair(shortDone, longDone);
    };

    const auto [staticShort, staticLong] =
        runWith(LlmBatchingMode::Static);
    EXPECT_DOUBLE_EQ(staticShort, staticLong)
        << "lockstep padding retires with the batch";

    const auto [contShort, contLong] =
        runWith(LlmBatchingMode::Continuous);
    EXPECT_LT(contShort, contLong)
        << "continuous batching frees the short sequence at its own "
           "final round";
    EXPECT_LT(contShort, staticShort);
}

/**
 * The LLM machinery must be invisible to a catalog without
 * autoregressive entries: with every LLM knob armed the rendered
 * report stays byte-identical to the default configuration, and no
 * LLM rows appear.
 */
TEST(LlmServing, DisabledRendersByteIdenticalReports)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.02;
    const auto trace = poissonTrace(catalog, 300, 21);

    auto renderWith = [&](AdmissionOptions admission) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        admission.maxQueueDelaySec = 0.005;
        options.serving.admission = admission;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        const ServingReport report = fleet.run(trace);
        EXPECT_FALSE(report.llmEnabled);
        EXPECT_EQ(report.llmDecodeRounds, 0);
        return describeServingReport(report);
    };

    AdmissionOptions armed;
    armed.llmBatching = LlmBatchingMode::Static; // non-default knob
    const std::string baseline = renderWith(AdmissionOptions{});
    EXPECT_EQ(baseline, renderWith(armed));
    EXPECT_EQ(baseline.find("LLM requests"), std::string::npos);
    EXPECT_EQ(baseline.find("Decode rounds"), std::string::npos);
}

/** Virtual-time LLM serving must not depend on wall-clock solve
 *  concurrency. */
TEST(LlmServing, DeterministicAcrossThreadCounts)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    catalog[0].rateRps = 400.0;
    catalog[0].llm.meanOutputTokens = 24.0;
    catalog[0].llm.maxOutputTokens = 96;
    catalog[0].llm.maxPromptTokens = 128;
    const auto trace = llmPoissonTrace(catalog, 60, 7);

    auto renderWith = [&](int solveThreads) {
        ThreadPool pool(solveThreads);
        FleetOptions options;
        options.shards = 2;
        options.serving.pool = &pool;
        options.serving.modeledSolveSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.001;
        options.serving.admission.llmBatching =
            LlmBatchingMode::Continuous;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return describeServingReport(fleet.run(trace));
    };

    const std::string serial = renderWith(1);
    EXPECT_EQ(serial, renderWith(8));
    EXPECT_NE(serial.find("Continuous-batching joins"),
              std::string::npos);
}

/**
 * Dispatches carry the MixPeek they were routed on, and materialize()
 * is the runtime's only Scenario builder: a warm continuous-batching
 * pass — every prefill and decode-step schedule resident, every
 * estimate memoized — forms and replays its prefill and decode rounds
 * without copying a single Model.
 */
TEST(LlmServing, WarmPassMaterializesNoMix)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    catalog[0].rateRps = 3000.0;
    catalog[0].llm.meanOutputTokens = 24.0;
    catalog[0].llm.maxOutputTokens = 96;
    catalog[0].llm.maxPromptTokens = 128;
    const auto trace = llmPoissonTrace(catalog, 200, 5);

    FleetOptions options;
    options.shards = 2;
    options.serving.scar.threads = 1;
    options.serving.modeledSolveSec = 0.002;
    options.serving.admission.maxQueueDelaySec = 0.001;
    options.serving.admission.llmBatching = LlmBatchingMode::Continuous;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);

    const ServingReport cold = fleet.run(trace);
    EXPECT_GT(cold.cache.misses, 0);
    EXPECT_GT(fleet.materializedMixes(), 0);

    // Rerun until a pass solves nothing (a warm pass may still meet a
    // mix the cold one never formed).
    ServingReport warm = fleet.run(trace);
    for (int pass = 0; pass < 4 && warm.cache.misses > 0; ++pass)
        warm = fleet.run(trace);
    ASSERT_EQ(warm.cache.misses, 0);
    EXPECT_GT(warm.llmDecodeRounds, 0);
    EXPECT_GT(warm.dispatches - warm.llmDecodeRounds, 0)
        << "the pass must form prefill dispatches too";
    EXPECT_GT(warm.llmJoins, 0);
    EXPECT_EQ(warm.completed, 200);
    EXPECT_EQ(fleet.materializedMixes(), 0);
}

} // namespace
} // namespace runtime
} // namespace scar
