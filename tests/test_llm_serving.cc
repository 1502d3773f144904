/**
 * @file
 * Tests for autoregressive (LLM) serving: the prefill/decode workload
 * builders and their KV-cache footprint, the admission decode queue
 * (boarding, buckets, round planning), one-step schedule tiling,
 * continuous-batching joins and per-sequence retirement at the fleet
 * level, the byte-identical disabled path, determinism across worker
 * pools, and the speculative partial-dispatch admission flag.
 */

#include <gtest/gtest.h>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "eval/reporter.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "runtime/serving_sim.h"
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

TEST(ScheduleCache, RepeatScheduleTilesWindows)
{
    Scenario mix;
    mix.name = "mix";
    mix.models = {buildDecodeStepModel(tinyDecoder(), 256)};
    const auto step = makeCachedSchedule(mix, [](const Scenario& m) {
        ScheduleResult result;
        for (int w = 0; w < 2; ++w) {
            ScheduledWindow sw;
            sw.cost.latencyCycles = 500.0;
            ModelPlacement mp;
            mp.modelIdx = 0;
            mp.segments.push_back(
                {LayerRange{0, m.models[0].numLayers() - 1}, 0});
            sw.placement.models.push_back(mp);
            result.windows.push_back(sw);
        }
        return result;
    });
    EXPECT_EQ(repeatSchedule(step, 1), step);
    const auto tiled = repeatSchedule(step, 3);
    ASSERT_EQ(tiled->windowSec.size(), 6u);
    for (const double sec : tiled->windowSec)
        EXPECT_DOUBLE_EQ(sec, step->windowSec[0]);
    EXPECT_DOUBLE_EQ(tiled->makespanSec, 3.0 * step->makespanSec);
    // Riders complete only at the very last tiled boundary.
    ASSERT_EQ(tiled->lastWindow.size(), 1u);
    EXPECT_EQ(tiled->lastWindow[0], 5);
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
    EXPECT_EQ(dispatch.mix.signature(), mix.signature());
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
 * AdmissionOptions::speculativePartialDispatch: a lone request on an
 * idle fleet dispatches immediately instead of aging out the batching
 * timer. Off (the default) preserves the timer-paced baseline.
 */
TEST(Admission, SpeculativePartialDispatchSkipsBatchTimer)
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(4); // batch cap 4, one request
    catalog[0].sloSec = 10.0;
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}});

    auto runWith = [&](bool speculative) {
        FleetOptions options;
        options.shards = 1;
        options.serving.admission.maxQueueDelaySec = 0.5;
        options.serving.admission.speculativePartialDispatch =
            speculative;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        fleet.run(trace);
        return fleet.records().front().dispatchSec;
    };

    EXPECT_GE(runWith(false), 0.5)
        << "default path waits out the batching timer";
    EXPECT_DOUBLE_EQ(runWith(true), 0.0)
        << "speculative path dispatches on the idle shard at once";
}

} // namespace
} // namespace runtime
} // namespace scar
