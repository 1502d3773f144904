/**
 * @file
 * Differential oracle for AdmissionController's mix peeks and urgency
 * tests. The controller names a peeked mix by interned variants
 * (MixPeek) and keeps each queue's earliest deadline incrementally; a
 * naive reference kept here derives the same answers the slow way —
 * one freshly built Model per boarded queue, Scenario::signature() of
 * the materialized mix, and O(queued) deadline scans — over a mirror
 * of every queue. Seeded random queue states (plain and LLM catalog
 * entries, static and continuous decode batching, deadlines that are
 * not monotone in arrival) interleave enqueue /
 * formDispatch / formUrgentDispatch / enqueueDecode /
 * formDecodeDispatch, and every peek, form and urgency probe must
 * agree with the reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "runtime/admission.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace runtime
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * The reference controller state: a mirror of the real controller's
 * queues, kept in the same (FIFO-remaining) order, with the original
 * O(queued) peek and urgency code of the Scenario-building
 * controller.
 */
class NaiveAdmission
{
  public:
    NaiveAdmission(const std::vector<ServedModel>& catalog,
                   AdmissionOptions options)
        : catalog_(catalog), options_(options), queues_(catalog.size()),
          decodeQueues_(catalog.size())
    {
    }

    void
    enqueue(const Request& req)
    {
        queues_[req.modelIdx].push_back(req);
    }

    void
    enqueueDecode(const Request& req)
    {
        decodeQueues_[req.modelIdx].push_back(req);
    }

    /** Drops the dispatch's riders from the mirrored queues. */
    void
    drain(const Dispatch& dispatch, bool decode)
    {
        for (const BatchGroup& group : dispatch.groups) {
            std::set<std::int64_t> ids;
            for (const Request& req : group.requests)
                ids.insert(req.id);
            auto& q = decode ? decodeQueues_[group.catalogIdx]
                             : queues_[group.catalogIdx];
            std::deque<Request> remaining;
            for (const Request& req : q) {
                if (ids.count(req.id) == 0)
                    remaining.push_back(req);
            }
            q = std::move(remaining);
        }
    }

    int
    queued(std::size_t m) const
    {
        return static_cast<int>(queues_[m].size());
    }

    int
    decodeQueued(std::size_t m) const
    {
        return static_cast<int>(decodeQueues_[m].size());
    }

    // ---- the reference, as the Scenario-building controller had it

    static int
    nextPow2(int n)
    {
        int p = 1;
        while (p < n)
            p *= 2;
        return p;
    }

    int
    dispatchBatch(std::size_t model) const
    {
        const int queued = static_cast<int>(queues_[model].size());
        const int cap = catalog_[model].model.batch;
        if (queued >= cap)
            return cap;
        return std::min(nextPow2(queued), cap);
    }

    Model
    scheduledModel(std::size_t model) const
    {
        const ServedModel& sm = catalog_[model];
        if (!sm.llm.autoregressive)
            return sm.model;
        std::int64_t maxPrompt = 1;
        for (const Request& req : queues_[model])
            maxPrompt = std::max(
                maxPrompt, static_cast<std::int64_t>(req.promptTokens));
        TransformerConfig cfg = sm.llm.decoder;
        cfg.name = sm.model.name;
        return buildPrefillModel(
            cfg, llmLengthBucket(maxPrompt, sm.llm.promptBucket));
    }

    Scenario
    peekFrom(const std::vector<bool>& take) const
    {
        Scenario mix;
        mix.name = "mix";
        for (std::size_t m = 0; m < queues_.size(); ++m) {
            if (queues_[m].empty() || !take[m])
                continue;
            Model scheduled = scheduledModel(m);
            scheduled.batch = dispatchBatch(m);
            mix.models.push_back(std::move(scheduled));
        }
        return mix;
    }

    bool
    modelUrgent(std::size_t model, double nowSec, double slackSec) const
    {
        for (const Request& req : queues_[model]) {
            if (nowSec >= req.deadlineSec - slackSec)
                return true;
        }
        return false;
    }

    double
    earliestDeadlineSec() const
    {
        double earliest = kInf;
        for (const auto& q : queues_) {
            for (const Request& req : q)
                earliest = std::min(earliest, req.deadlineSec);
        }
        return earliest;
    }

    bool
    urgentQueued(double nowSec, double slackSec) const
    {
        for (std::size_t m = 0; m < queues_.size(); ++m) {
            if (modelUrgent(m, nowSec, slackSec))
                return true;
        }
        return false;
    }

    std::vector<bool>
    urgentTake(double nowSec, double slackSec) const
    {
        std::vector<bool> take(queues_.size());
        for (std::size_t m = 0; m < queues_.size(); ++m)
            take[m] = modelUrgent(m, nowSec, slackSec);
        return take;
    }

    std::vector<std::size_t>
    decodeBoarders(std::size_t model) const
    {
        const auto& q = decodeQueues_[model];
        const int cap = catalog_[model].model.batch;
        std::vector<std::size_t> boarders;
        if (options_.llmBatching == LlmBatchingMode::Static) {
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

    Scenario
    peekDecodeMix(std::size_t m) const
    {
        const ServedModel& sm = catalog_[m];
        const auto& q = decodeQueues_[m];
        const std::vector<std::size_t> boarders = decodeBoarders(m);
        std::int64_t maxCtx = 1;
        for (const std::size_t i : boarders)
            maxCtx = std::max(maxCtx, q[i].contextTokens());
        const std::int64_t ctxBucket =
            llmLengthBucket(maxCtx, sm.llm.contextBucket);
        TransformerConfig cfg = sm.llm.decoder;
        cfg.name = sm.model.name;
        Model scheduled = buildDecodeStepModel(cfg, ctxBucket);
        const int boarded = static_cast<int>(boarders.size());
        const int cap = sm.model.batch;
        scheduled.batch =
            boarded >= cap ? cap : std::min(nextPow2(boarded), cap);
        Scenario mix;
        mix.name = "mix";
        mix.models.push_back(std::move(scheduled));
        return mix;
    }

  private:
    std::vector<ServedModel> catalog_;
    AdmissionOptions options_;
    std::vector<std::deque<Request>> queues_;
    std::vector<std::deque<Request>> decodeQueues_;
};

int
batchSlots(const Scenario& mix)
{
    int slots = 0;
    for (const Model& model : mix.models)
        slots += model.batch;
    return slots;
}

/** Two plain entries and one small autoregressive decoder. */
std::vector<ServedModel>
oracleCatalog(int llmBatch)
{
    std::vector<ServedModel> catalog(3);
    catalog[0].model = zoo::googleNet(4);
    catalog[1].model = zoo::eyeCod(2);
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 64;
    cfg.dFf = 128;
    cfg.vocab = 0;
    catalog[2].model = buildTransformer(cfg);
    catalog[2].model.batch = llmBatch;
    catalog[2].llm.autoregressive = true;
    catalog[2].llm.decoder = cfg;
    catalog[2].llm.promptBucket = 16;
    catalog[2].llm.contextBucket = 32;
    catalog[2].llm.maxDecodeSteps = 6;
    return catalog;
}

/** One seeded random walk over a controller and its reference. */
void
runOracle(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto uniform = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto pick = [&](int n) {
        return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };

    AdmissionOptions options;
    options.maxQueueDelaySec = uniform(0.0, 0.05);
    options.llmBatching = pick(2) == 0 ? LlmBatchingMode::Static
                                       : LlmBatchingMode::Continuous;
    const auto catalog = oracleCatalog(2 + pick(4));
    const std::size_t llm = 2;
    AdmissionController admission(catalog, options);
    NaiveAdmission naive(catalog, options);
    SCOPED_TRACE("seed " + std::to_string(seed));

    double nowSec = 0.0;
    std::int64_t nextId = 0;
    long forms = 0;
    long urgentForms = 0;
    long decodeForms = 0;

    auto checkUrgency = [&](double atSec, double slackSec) {
        ASSERT_EQ(admission.urgentQueued(atSec, slackSec),
                  naive.urgentQueued(atSec, slackSec))
            << "at " << atSec << " slack " << slackSec;
    };
    auto checkQueues = [&]() {
        ASSERT_EQ(admission.earliestDeadlineSec(),
                  naive.earliestDeadlineSec());
        for (std::size_t m = 0; m < catalog.size(); ++m) {
            ASSERT_EQ(admission.queuedCount(static_cast<int>(m)),
                      naive.queued(m));
            ASSERT_EQ(admission.decodeQueuedCount(static_cast<int>(m)),
                      naive.decodeQueued(m));
        }
    };
    // Peek, materialize and form must name one mix, the one the
    // reference builds from the mirrored queues.
    auto checkPeek = [&](const MixPeek& peek, const Scenario& reference) {
        const Scenario mix = admission.materialize(peek);
        ASSERT_EQ(peek.signature, mix.signature());
        ASSERT_EQ(peek.signature, reference.signature());
        ASSERT_EQ(peek.batchSlots, batchSlots(reference));
        ASSERT_EQ(peek.numModels(), reference.numModels());
        ASSERT_EQ(mix.name, reference.name);
        for (int i = 0; i < mix.numModels(); ++i) {
            ASSERT_EQ(mix.models[i].name, reference.models[i].name);
            ASSERT_EQ(mix.models[i].batch, reference.models[i].batch);
        }
    };
    // A formed dispatch carries the peek it was routed on: same parts
    // (interned variant, batch) and signature, and one batch group per
    // part in the same order.
    auto checkFormed = [&](const Dispatch& dispatch, const MixPeek& peek) {
        ASSERT_EQ(dispatch.mix.signature, peek.signature);
        ASSERT_EQ(dispatch.mix.batchSlots, peek.batchSlots);
        ASSERT_EQ(dispatch.mix.numModels(), peek.numModels());
        ASSERT_EQ(dispatch.groups.size(), peek.parts.size());
        for (std::size_t i = 0; i < peek.parts.size(); ++i) {
            ASSERT_EQ(dispatch.mix.parts[i].catalogIdx,
                      peek.parts[i].catalogIdx);
            ASSERT_EQ(dispatch.mix.parts[i].variant,
                      peek.parts[i].variant);
            ASSERT_EQ(dispatch.mix.parts[i].batch, peek.parts[i].batch);
            ASSERT_EQ(dispatch.groups[i].catalogIdx,
                      peek.parts[i].catalogIdx);
            ASSERT_EQ(dispatch.groups[i].batch, peek.parts[i].batch);
        }
    };

    for (int step = 0; step < 400; ++step) {
        nowSec += uniform(0.0, 0.004);
        const int op = pick(10);
        if (op <= 3) {
            // Arrival; SLOs span tight frames to none, so deadlines
            // are not monotone in arrival.
            Request req;
            req.id = nextId++;
            req.modelIdx = pick(static_cast<int>(catalog.size()));
            req.arrivalSec = nowSec;
            const int slo = pick(5);
            req.deadlineSec =
                slo == 0 ? kInf : nowSec + uniform(0.0, 0.02 * slo);
            if (catalog[req.modelIdx].llm.autoregressive) {
                req.promptTokens = 1 + pick(60);
                req.outputTokens = 1 + pick(12);
            }
            admission.enqueue(req);
            naive.enqueue(req);
        } else if (op == 4) {
            // A prefill-completed sequence joins the decode queue.
            Request req;
            req.id = nextId++;
            req.modelIdx = static_cast<int>(llm);
            req.arrivalSec = nowSec;
            req.firstTokenSec = nowSec;
            req.promptTokens = 1 + pick(40);
            req.outputTokens = 2 + pick(20);
            req.generatedTokens = 1;
            admission.enqueueDecode(req);
            naive.enqueueDecode(req);
        } else if (op == 5 || op == 6) {
            if (!admission.ready(nowSec))
                continue;
            const MixPeek peek = admission.peekMix();
            checkPeek(peek, naive.peekFrom(
                                std::vector<bool>(catalog.size(), true)));
            const Dispatch dispatch = admission.formDispatch(nowSec);
            checkFormed(dispatch, peek);
            naive.drain(dispatch, false);
            ++forms;
        } else if (op == 7) {
            const double slackSec = uniform(0.0, 0.03);
            if (!naive.urgentQueued(nowSec, slackSec))
                continue;
            const MixPeek peek =
                admission.peekUrgentMix(nowSec, slackSec);
            checkPeek(peek,
                      naive.peekFrom(naive.urgentTake(nowSec, slackSec)));
            const Dispatch dispatch =
                admission.formUrgentDispatch(nowSec, slackSec);
            checkFormed(dispatch, peek);
            naive.drain(dispatch, false);
            ++urgentForms;
        } else if (op == 8) {
            if (admission.decodeQueuedCount(static_cast<int>(llm)) == 0)
                continue;
            const MixPeek peek =
                admission.peekDecodeMix(static_cast<int>(llm));
            checkPeek(peek, naive.peekDecodeMix(llm));
            const Dispatch dispatch =
                admission.formDecodeDispatch(static_cast<int>(llm));
            checkFormed(dispatch, peek);
            naive.drain(dispatch, true);
            ++decodeForms;
            // Replay the round: credit the steps and send riders back
            // the way the fleet does (static batches retire together).
            std::vector<Request> riders = dispatch.groups[0].requests;
            bool allFinished = true;
            for (Request& req : riders) {
                req.generatedTokens += req.ridingDecodeSteps;
                req.ridingDecodeSteps = 0;
                if (req.generatedTokens < req.outputTokens)
                    allFinished = false;
            }
            for (const Request& req : riders) {
                const bool finished =
                    req.generatedTokens >= req.outputTokens;
                if (finished &&
                    (options.llmBatching == LlmBatchingMode::Continuous ||
                     allFinished))
                    continue;
                admission.enqueueDecode(req);
                naive.enqueueDecode(req);
            }
        }
        checkQueues();
        // Urgency probes: random instants and slacks, and exactly on
        // (and one ulp either side of) a queued deadline's crossing.
        for (int probe = 0; probe < 3; ++probe)
            checkUrgency(nowSec + uniform(-0.02, 0.05),
                         uniform(0.0, 0.03));
        const double slackSec = uniform(0.0, 0.03);
        const double crossing = naive.earliestDeadlineSec() - slackSec;
        if (std::isfinite(crossing)) {
            checkUrgency(crossing, slackSec);
            checkUrgency(std::nextafter(crossing, -kInf), slackSec);
            checkUrgency(std::nextafter(crossing, kInf), slackSec);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The walk must actually have exercised every form path.
    EXPECT_GT(forms, 0);
    EXPECT_GT(urgentForms, 0);
    EXPECT_GT(decodeForms, 0);
}

TEST(AdmissionOracle, PeeksAndUrgencyMatchTheNaiveReference)
{
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        runOracle(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Interning hands out one variant per (model, bucket): a re-peek of
 *  an unchanged queue points at the same variant, and the prefill
 *  bucket follows the longest queued prompt. */
TEST(AdmissionOracle, VariantsAreInternedPerBucket)
{
    const auto catalog = oracleCatalog(4);
    AdmissionController admission(catalog);
    Request req;
    req.modelIdx = 2;
    req.promptTokens = 10;
    req.outputTokens = 4;
    admission.enqueue(req);
    const MixPeek first = admission.peekMix();
    const MixPeek again = admission.peekMix();
    ASSERT_EQ(first.numModels(), 1);
    EXPECT_EQ(first.parts[0].variant, again.parts[0].variant);
    EXPECT_EQ(admission.materialize(first).models[0].name,
              "chat.prefill16");
    req.promptTokens = 20;
    admission.enqueue(req);
    const MixPeek longer = admission.peekMix();
    EXPECT_NE(longer.parts[0].variant, first.parts[0].variant);
    EXPECT_EQ(admission.materialize(longer).models[0].name,
              "chat.prefill32");
    EXPECT_EQ(admission.materializedMixes(), 2);
}

} // namespace
} // namespace runtime
} // namespace scar
