#include "runtime/admission.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"

namespace scar
{
namespace runtime
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Smallest power of two >= n. */
int
nextPow2(int n)
{
    int p = 1;
    while (p < n)
        p *= 2;
    return p;
}

/** The dispatched batch for `boarded` riders: rounded up to a power
 *  of two (signature hygiene), capped at the catalog batch. */
int
paddedBatch(int boarded, int cap)
{
    return std::min(nextPow2(boarded), cap);
}

/** Context bucket and step count one decode round covers. */
struct DecodeRound
{
    std::int64_t ctxBucket = 0;
    int steps = 1;
};

/**
 * Plans the round for the given boarders: price the KV footprint at
 * the max rider context rounded up to the bucket, and advance by the
 * largest step count that (a) no unfinished rider overshoots its
 * output length, (b) no rider's context outgrows the priced bucket,
 * (c) stays within the profile's per-round cap.
 */
DecodeRound
planDecodeRound(const ServedModel& sm, const std::deque<Request>& q,
                const std::vector<std::size_t>& boarders)
{
    std::int64_t maxCtx = 1;
    int minRemaining = sm.llm.maxDecodeSteps;
    for (const std::size_t i : boarders) {
        const Request& req = q[i];
        maxCtx = std::max(maxCtx, req.contextTokens());
        const int remaining = req.outputTokens - req.generatedTokens;
        if (remaining > 0)
            minRemaining = std::min(minRemaining, remaining);
    }
    DecodeRound round;
    round.ctxBucket = llmLengthBucket(maxCtx, sm.llm.contextBucket);
    const std::int64_t toBucketEdge = round.ctxBucket - maxCtx + 1;
    round.steps = static_cast<int>(std::min<std::int64_t>(
        std::min(minRemaining, sm.llm.maxDecodeSteps), toBucketEdge));
    round.steps = std::max(round.steps, 1);
    return round;
}

/** A variant with its signature prefix (Scenario::signature's
 *  "name#layers=" part; the batch is appended per peek). */
MixVariant
makeVariant(Model model)
{
    MixVariant variant;
    variant.sigPrefix = model.name + "#" +
                        std::to_string(model.numLayers()) + "=";
    variant.model = std::move(model);
    return variant;
}

/** The variant interned at `bucket`, built by `build` on first use. */
template <typename Build>
const MixVariant&
intern(std::map<std::int64_t, MixVariant>& variants, std::int64_t bucket,
       Build build)
{
    auto it = variants.find(bucket);
    if (it == variants.end())
        it = variants.emplace(bucket, makeVariant(build())).first;
    return it->second;
}

/** The decoder config of an autoregressive entry, named after it. */
TransformerConfig
decoderConfig(const ServedModel& sm)
{
    TransformerConfig cfg = sm.llm.decoder;
    cfg.name = sm.model.name;
    return cfg;
}

} // namespace

AdmissionController::AdmissionController(
    const std::vector<ServedModel>& catalog, AdmissionOptions options)
    : catalog_(catalog), options_(options), queues_(catalog.size()),
      earliestDeadline_(catalog.size(), kInf),
      maxPrompt_(catalog.size(), 1), decodeQueues_(catalog.size()),
      prefill_(catalog.size()), decode_(catalog.size())
{
    SCAR_REQUIRE(!catalog_.empty(), "admission: empty catalog");
    for (const ServedModel& sm : catalog_) {
        SCAR_REQUIRE(sm.model.batch >= 1, "admission: model ",
                     sm.model.name, " has batch ", sm.model.batch);
        if (sm.llm.autoregressive) {
            SCAR_REQUIRE(sm.llm.decoder.dModel >= 1 &&
                             sm.llm.decoder.dFf >= 1 &&
                             sm.llm.decoder.numBlocks >= 1,
                         "admission: model ", sm.model.name,
                         " has an invalid decoder config");
            SCAR_REQUIRE(sm.llm.promptBucket >= 1 &&
                             sm.llm.contextBucket >= 1 &&
                             sm.llm.maxDecodeSteps >= 1,
                         "admission: model ", sm.model.name,
                         " has invalid LLM buckets");
        }
    }
    SCAR_REQUIRE(options_.maxQueueDelaySec >= 0.0,
                 "admission: negative maxQueueDelaySec");
    plainVariants_.reserve(catalog_.size());
    for (const ServedModel& sm : catalog_)
        plainVariants_.push_back(makeVariant(sm.model));
}

void
AdmissionController::enqueue(const Request& request)
{
    SCAR_REQUIRE(request.modelIdx >= 0 &&
                     request.modelIdx <
                         static_cast<int>(catalog_.size()),
                 "admission: request model ", request.modelIdx,
                 " outside catalog");
    const auto m = static_cast<std::size_t>(request.modelIdx);
    queues_[m].push_back(request);
    earliestDeadline_[m] =
        std::min(earliestDeadline_[m], request.deadlineSec);
    maxPrompt_[m] = std::max(
        maxPrompt_[m], static_cast<std::int64_t>(request.promptTokens));
}

void
AdmissionController::refreshQueueStats(std::size_t model)
{
    double earliest = kInf;
    std::int64_t maxPrompt = 1;
    for (const Request& req : queues_[model]) {
        earliest = std::min(earliest, req.deadlineSec);
        maxPrompt = std::max(
            maxPrompt, static_cast<std::int64_t>(req.promptTokens));
    }
    earliestDeadline_[model] = earliest;
    maxPrompt_[model] = maxPrompt;
}

int
AdmissionController::queuedCount() const
{
    int total = 0;
    for (const auto& q : queues_)
        total += static_cast<int>(q.size());
    return total;
}

int
AdmissionController::queuedCount(int model) const
{
    SCAR_REQUIRE(model >= 0 &&
                     model < static_cast<int>(queues_.size()),
                 "admission: queue index ", model, " outside catalog");
    return static_cast<int>(queues_[model].size());
}

bool
AdmissionController::ready(double nowSec) const
{
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        const auto& q = queues_[m];
        if (q.empty())
            continue;
        if (static_cast<int>(q.size()) >= catalog_[m].model.batch)
            return true;
        // Same expression as nextForcedDispatchSec so the two agree
        // bit-for-bit at the timer instant (a - b >= d can round the
        // other way and livelock the event loop).
        if (nowSec >= q.front().arrivalSec + options_.maxQueueDelaySec)
            return true;
    }
    return false;
}

int
AdmissionController::dispatchBatch(std::size_t model) const
{
    return paddedBatch(static_cast<int>(queues_[model].size()),
                       catalog_[model].model.batch);
}

Dispatch
AdmissionController::formDispatch(double nowSec)
{
    SCAR_REQUIRE(ready(nowSec), "admission: formDispatch while idle");
    return formFrom(std::vector<bool>(queues_.size(), true));
}

Dispatch
AdmissionController::formFrom(const std::vector<bool>& take)
{
    // Peek before draining any queue: the prefill variant's bucket
    // covers the queued prompts, the batch is the padded queue depth,
    // and the fleet routed on this very peek of the full queues.
    Dispatch dispatch;
    dispatch.mix = peekWhere(take);
    for (const MixPart& part : dispatch.mix.parts) {
        const auto m = static_cast<std::size_t>(part.catalogIdx);
        auto& q = queues_[m];
        BatchGroup group;
        group.catalogIdx = part.catalogIdx;
        group.batch = part.batch;
        const int boardCount =
            std::min(static_cast<int>(q.size()), group.batch);
        for (int i = 0; i < boardCount; ++i) {
            group.requests.push_back(q.front());
            q.pop_front();
        }
        refreshQueueStats(m);
        dispatch.groups.push_back(std::move(group));
    }
    return dispatch;
}

MixPeek
AdmissionController::peekMix() const
{
    return peekWhere(std::vector<bool>(queues_.size(), true));
}

MixPeek
AdmissionController::peekWhere(const std::vector<bool>& take) const
{
    MixPeek peek;
    peek.parts.reserve(queues_.size());
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        if (queues_[m].empty() || !take[m])
            continue;
        peek.parts.push_back({static_cast<int>(m), &scheduledModel(m),
                              dispatchBatch(m)});
    }
    finishPeek(peek);
    return peek;
}

void
AdmissionController::finishPeek(MixPeek& peek)
{
    // Scenario::signature() of the materialized mix, built from the
    // interned prefixes.
    std::vector<std::string> parts;
    parts.reserve(peek.parts.size());
    for (const MixPart& part : peek.parts) {
        parts.push_back(part.variant->sigPrefix +
                        std::to_string(part.batch));
        peek.batchSlots += part.batch;
    }
    std::sort(parts.begin(), parts.end());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            peek.signature += '+';
        peek.signature += parts[i];
    }
}

Scenario
AdmissionController::materialize(const MixPeek& peek) const
{
    ++materializedMixes_;
    Scenario mix;
    mix.name = "mix";
    mix.models.reserve(peek.parts.size());
    for (const MixPart& part : peek.parts) {
        mix.models.push_back(part.variant->model);
        mix.models.back().batch = part.batch;
    }
    return mix;
}

const MixVariant&
AdmissionController::scheduledModel(std::size_t model) const
{
    const ServedModel& sm = catalog_[model];
    if (!sm.llm.autoregressive)
        return plainVariants_[model];
    // Prefill variant at the queue's max prompt, bucket-rounded. The
    // max ranges over the whole queue — not just the boarders — so
    // peekMix and formDispatch trivially agree on the signature the
    // fleet's routing handshake asserts; the cost is mild over-padding
    // when a long-prompt request waits behind the batch cap.
    const std::int64_t bucket =
        llmLengthBucket(maxPrompt_[model], sm.llm.promptBucket);
    return intern(prefill_[model], bucket, [&]() {
        return buildPrefillModel(decoderConfig(sm), bucket);
    });
}

bool
AdmissionController::modelUrgent(std::size_t model, double nowSec,
                                 double slackSec) const
{
    // Same expression as the fleet's urgency timer
    // (earliestDeadlineSec() - slackSec) so the two agree bit-for-bit
    // at the crossing instant. fl(d - s) is monotone in d, so testing
    // the queue's earliest deadline is exactly testing every request.
    return !queues_[model].empty() &&
           nowSec >= earliestDeadline_[model] - slackSec;
}

double
AdmissionController::earliestDeadlineSec() const
{
    return *std::min_element(earliestDeadline_.begin(),
                             earliestDeadline_.end());
}

bool
AdmissionController::urgentQueued(double nowSec, double slackSec) const
{
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        if (modelUrgent(m, nowSec, slackSec))
            return true;
    }
    return false;
}

std::vector<bool>
AdmissionController::urgentModels(double nowSec, double slackSec) const
{
    std::vector<bool> take(queues_.size());
    for (std::size_t m = 0; m < queues_.size(); ++m)
        take[m] = modelUrgent(m, nowSec, slackSec);
    return take;
}

MixPeek
AdmissionController::peekUrgentMix(double nowSec,
                                   double slackSec) const
{
    return peekWhere(urgentModels(nowSec, slackSec));
}

Dispatch
AdmissionController::formUrgentDispatch(double nowSec, double slackSec)
{
    SCAR_REQUIRE(urgentQueued(nowSec, slackSec),
                 "admission: formUrgentDispatch without an urgent "
                 "request queued");
    return formFrom(urgentModels(nowSec, slackSec));
}

void
AdmissionController::enqueueDecode(const Request& request)
{
    SCAR_REQUIRE(request.modelIdx >= 0 &&
                     request.modelIdx <
                         static_cast<int>(catalog_.size()),
                 "admission: decode request model ", request.modelIdx,
                 " outside catalog");
    SCAR_REQUIRE(catalog_[request.modelIdx].llm.autoregressive,
                 "admission: decode enqueue for non-LLM model ",
                 catalog_[request.modelIdx].model.name);
    SCAR_REQUIRE(request.prefillDone(),
                 "admission: decode enqueue before prefill");
    decodeQueues_[request.modelIdx].push_back(request);
}

int
AdmissionController::decodeQueuedCount() const
{
    int total = 0;
    for (const auto& q : decodeQueues_)
        total += static_cast<int>(q.size());
    return total;
}

int
AdmissionController::decodeQueuedCount(int model) const
{
    SCAR_REQUIRE(model >= 0 &&
                     model < static_cast<int>(decodeQueues_.size()),
                 "admission: decode queue index ", model,
                 " outside catalog");
    return static_cast<int>(decodeQueues_[model].size());
}

std::vector<std::size_t>
AdmissionController::decodeBoarders(std::size_t model) const
{
    const auto& q = decodeQueues_[model];
    const int cap = catalog_[model].model.batch;
    std::vector<std::size_t> boarders;
    if (options_.llmBatching == LlmBatchingMode::Static) {
        // A waiting locked batch outranks fresh arrivals and boards
        // whole (its members only ever enter and leave the queue
        // together, so every member is present).
        std::int64_t minId = -1;
        for (const Request& req : q) {
            if (req.llmBatchId >= 0 &&
                (minId < 0 || req.llmBatchId < minId))
                minId = req.llmBatchId;
        }
        if (minId >= 0) {
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (q[i].llmBatchId == minId)
                    boarders.push_back(i);
            }
            return boarders;
        }
    }
    const std::size_t count =
        std::min(q.size(), static_cast<std::size_t>(cap));
    for (std::size_t i = 0; i < count; ++i)
        boarders.push_back(i);
    return boarders;
}

const MixVariant&
AdmissionController::decodeVariant(std::size_t model,
                                   std::int64_t ctxBucket) const
{
    return intern(decode_[model], ctxBucket, [&]() {
        return buildDecodeStepModel(decoderConfig(catalog_[model]),
                                    ctxBucket);
    });
}

MixPeek
AdmissionController::peekDecodeMix(int model) const
{
    SCAR_REQUIRE(decodeQueuedCount(model) > 0,
                 "admission: peekDecodeMix on empty decode queue");
    const std::size_t m = static_cast<std::size_t>(model);
    const std::vector<std::size_t> boarders = decodeBoarders(m);
    const DecodeRound round =
        planDecodeRound(catalog_[m], decodeQueues_[m], boarders);
    return decodePeek(m, round.ctxBucket, boarders.size());
}

MixPeek
AdmissionController::decodePeek(std::size_t model,
                                std::int64_t ctxBucket,
                                std::size_t boarded) const
{
    MixPeek peek;
    peek.parts.push_back(
        {static_cast<int>(model), &decodeVariant(model, ctxBucket),
         paddedBatch(static_cast<int>(boarded),
                     catalog_[model].model.batch)});
    finishPeek(peek);
    return peek;
}

Dispatch
AdmissionController::formDecodeDispatch(int model)
{
    SCAR_REQUIRE(decodeQueuedCount(model) > 0,
                 "admission: formDecodeDispatch on empty decode "
                 "queue");
    const std::size_t m = static_cast<std::size_t>(model);
    const ServedModel& sm = catalog_[m];
    auto& q = decodeQueues_[m];
    const std::vector<std::size_t> boarders = decodeBoarders(m);
    const DecodeRound round = planDecodeRound(sm, q, boarders);

    Dispatch dispatch;
    dispatch.mix = decodePeek(m, round.ctxBucket, boarders.size());
    dispatch.llmDecodeSteps = round.steps;
    BatchGroup group;
    group.catalogIdx = model;
    group.batch = dispatch.mix.parts.front().batch;
    std::vector<bool> boarded(q.size(), false);
    for (const std::size_t i : boarders) {
        boarded[i] = true;
        Request req = q[i];
        if (options_.llmBatching == LlmBatchingMode::Static &&
            req.llmBatchId < 0)
            req.llmBatchId = nextLlmBatchId_;
        // Finished lockstep padding rides without advancing.
        req.ridingDecodeSteps =
            req.generatedTokens >= req.outputTokens ? 0 : round.steps;
        group.requests.push_back(std::move(req));
    }
    if (options_.llmBatching == LlmBatchingMode::Static)
        ++nextLlmBatchId_;
    std::deque<Request> remaining;
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (!boarded[i])
            remaining.push_back(q[i]);
    }
    q = std::move(remaining);
    dispatch.groups.push_back(std::move(group));
    return dispatch;
}

double
AdmissionController::nextForcedDispatchSec() const
{
    double earliest = kInf;
    for (const auto& q : queues_) {
        if (q.empty())
            continue;
        earliest = std::min(earliest, q.front().arrivalSec +
                                          options_.maxQueueDelaySec);
    }
    return earliest;
}

} // namespace runtime
} // namespace scar
