/**
 * @file
 * Admission and batching policy for the serving runtime.
 *
 * Requests queue per catalog model. A model becomes "ready" when a
 * full batch (its catalog batch size, the one the cost model's
 * mini-batch derivation understands) is queued, or when its oldest
 * request has waited longer than maxQueueDelaySec. When the MCM is
 * free and at least one model is ready, the controller drains every
 * model with pending work into one dispatch: the co-scheduled mix.
 *
 * Partially filled batches are rounded up to the next power of two
 * (capped at the catalog batch) so the space of dispatched batch
 * sizes — and therefore of mix signatures that trigger a fresh
 * Scar::run() — stays small; the unfilled slots model the padding a
 * real batching server would submit. Re-scheduling is thereby driven
 * purely by mix changes: the schedule cache re-runs the search only
 * when the dispatched (model, batch) signature is new.
 *
 * Preemption eligibility: a queued request whose slack
 * (deadline - now) has shrunk to the serving runtime's configured
 * threshold is "urgent" — it can no longer afford to wait out the
 * backlog or an in-flight replay. The urgent-dispatch path
 * (urgentQueued / peekUrgentMix / formUrgentDispatch) boards only the
 * models holding such a request, so the preemptive dispatch the fleet
 * squeezes in at a window boundary stays as short as possible; the
 * non-urgent queues keep aging toward their normal forced-dispatch
 * timer. All urgency comparisons use the expression
 * `nowSec >= deadlineSec - slackSec` so the fleet's urgency timer and
 * the eligibility test agree bit-for-bit at the crossing instant
 * (the same FP-symmetry rule ready() and nextForcedDispatchSec()
 * follow). Each queue keeps its earliest deadline incrementally
 * (updated on enqueue, recomputed after a drain), so the urgency
 * tests are O(models): fl(d - s) is monotone in d, so
 * `nowSec >= min(d) - slackSec` holds exactly when some request's
 * `nowSec >= d - slackSec` does.
 *
 * Mix peeks: the fleet routes (and speculates) on the mix the next
 * dispatch would form before forming it. A peek is a MixPeek — the
 * boarded (catalog index, interned variant, batch) triples, the mix
 * signature and the batch-slot sum — not a Scenario: every scheduled
 * variant of a catalog model (the plain model, and for autoregressive
 * entries one prefill / decode-step variant per length bucket) is
 * built once and interned with its signature prefix `name#layers=`,
 * so a peek copies no Model. A formed Dispatch carries the same
 * MixPeek, built by the same routine before the queues drain, so the
 * fleet's routing handshake compares two signatures and no dispatch
 * copies a Model either. materialize() is the one place the runtime
 * builds a Scenario (catalog order, name "mix", padded batches): for
 * a schedule solve or a makespan estimate, never for replay.
 */

#ifndef SCAR_RUNTIME_ADMISSION_H
#define SCAR_RUNTIME_ADMISSION_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "runtime/request.h"
#include "workload/scenario.h"

namespace scar
{
namespace runtime
{

/**
 * How autoregressive decode rounds batch requests (only meaningful
 * for catalog entries with LlmProfile::autoregressive set).
 */
enum class LlmBatchingMode
{
    /**
     * Batch-and-replay baseline: the requests boarding a decode round
     * are locked into one batch that decodes in lockstep until every
     * member reaches its output length; finished members ride along
     * as padding and retire with the batch, and later arrivals wait
     * for the next batch.
     */
    Static,
    /**
     * Continuous batching: waiting requests join the in-flight decode
     * stream at the next step-aligned window boundary (the fleet cuts
     * the replay with ReplayExecutor::suspend) and finished sequences
     * retire at their own final step, shrinking the dispatched mix.
     */
    Continuous,
};

/** Batching knobs. */
struct AdmissionOptions
{
    /**
     * Oldest-request age that forces a partial-batch dispatch, in
     * seconds. Smaller values favor latency, larger values favor
     * full batches (throughput).
     */
    double maxQueueDelaySec = 0.05;
    /** Decode-round batching policy for autoregressive models. */
    LlmBatchingMode llmBatching = LlmBatchingMode::Continuous;
};

/** One model's share of a dispatch. */
struct BatchGroup
{
    int catalogIdx = -1;
    /** Dispatched batch size (>= requests.size() when padded). */
    int batch = 0;
    /** Requests riding in this batch, oldest first. */
    std::vector<Request> requests;
};

/**
 * One scheduled variant of a catalog model, built once and interned
 * by the AdmissionController: the model the scheduler sees (its batch
 * is set per dispatch) and its signature prefix `name#layers=`.
 */
struct MixVariant
{
    Model model;
    std::string sigPrefix;
};

/** One boarded model of a peeked mix. */
struct MixPart
{
    int catalogIdx = -1;
    const MixVariant* variant = nullptr; ///< owned by the controller
    int batch = 0;                       ///< dispatched (padded) batch
};

/**
 * The mix the next dispatch would form, named without materializing
 * it: parts in catalog order, the signature Scenario::signature()
 * would render for the materialized mix, and the sum of the padded
 * batches. Valid while its controller lives (variants are interned
 * for the controller's lifetime).
 */
struct MixPeek
{
    std::vector<MixPart> parts;
    std::string signature;
    int batchSlots = 0;

    int numModels() const { return static_cast<int>(parts.size()); }
};

/** A co-scheduled batch of requests: the unit the executor replays. */
struct Dispatch
{
    /**
     * The boarded mix, as the peek the fleet routed on: parts in
     * catalog order, aligned with groups. materialize() turns it into
     * the Scenario a solve needs; replay never does.
     */
    MixPeek mix;
    std::vector<BatchGroup> groups; ///< aligned with mix.parts
    /**
     * Decode steps this dispatch advances each rider by (0 = not a
     * decode round). A decode round replays the one-step schedule
     * this many times back to back (ReplayExecutor tiles it), so the
     * schedule-cache key — the one-step mix signature — is shared by
     * every round of the same (context bucket, batch).
     */
    int llmDecodeSteps = 0;
};

/** Per-model queues plus the dispatch-forming policy. */
class AdmissionController
{
  public:
    AdmissionController(const std::vector<ServedModel>& catalog,
                        AdmissionOptions options = AdmissionOptions{});

    /** Admits an arrived request into its model queue. */
    void enqueue(const Request& request);

    /** Total queued requests across models. */
    int queuedCount() const;

    /** Queued requests of one catalog model (observability sampling). */
    int queuedCount(int model) const;

    /**
     * True when some model has a ready batch at the given time: a
     * full batch queued, or an oldest request older than
     * maxQueueDelaySec.
     */
    bool ready(double nowSec) const;

    /**
     * Forms a dispatch at nowSec, consuming the queued requests. All
     * models with pending work join the mix (partial batches
     * included) so the package is shared the way the offline
     * scheduler optimizes for; a queue past its batch cap boards its
     * oldest requests and keeps the rest. Requires ready(nowSec).
     */
    Dispatch formDispatch(double nowSec);

    /**
     * The mix formDispatch would build right now, without consuming
     * any queue. The serving loop routes on it before forming the
     * dispatch, and uses it to begin a speculative background
     * schedule solve while every shard is still busy; the actual
     * dispatch later re-checks the (possibly grown) mix.
     */
    MixPeek peekMix() const;

    /**
     * The Scenario a peek names: the interned variants at the peeked
     * batches, in catalog order, named "mix" — the mix a solve of the
     * matching dispatch searches. Counted by materializedMixes().
     */
    Scenario materialize(const MixPeek& peek) const;

    /** Scenarios built by materialize() over this controller's life. */
    long materializedMixes() const { return materializedMixes_; }

    /**
     * Earliest future instant at which a queued request's age crosses
     * maxQueueDelaySec (infinity when no requests are queued). Used
     * by the event loop to schedule its batching timer.
     */
    double nextForcedDispatchSec() const;

    /**
     * Earliest SLO deadline among all queued requests (infinity when
     * none are queued). `earliestDeadlineSec() - slackSec` is the
     * instant the next request turns urgent — the fleet's preemption
     * timer.
     */
    double earliestDeadlineSec() const;

    /**
     * Preemption-eligibility test: true when some queued request's
     * slack at nowSec is at or below slackSec (evaluated as
     * `nowSec >= deadlineSec - slackSec`; a negative slack — an
     * already-blown deadline — still counts, minimizing lateness).
     */
    bool urgentQueued(double nowSec, double slackSec) const;

    /**
     * The mix formUrgentDispatch would build right now: only the
     * models holding an urgent request, at their dispatched batch
     * sizes. Requires urgentQueued(nowSec, slackSec).
     */
    MixPeek peekUrgentMix(double nowSec, double slackSec) const;

    /**
     * Forms a dispatch draining only the urgent models' queues
     * (boarding order as in formDispatch); the other models' requests
     * stay queued and keep aging toward their forced-dispatch timer.
     * Requires urgentQueued(nowSec, slackSec).
     */
    Dispatch formUrgentDispatch(double nowSec, double slackSec);

    // ---- autoregressive decode queue -----------------------------
    // Requests whose prefill has completed but whose output length is
    // not reached wait here between decode rounds. Decode rounds are
    // single-model dispatches formed by the fleet whenever a shard is
    // free (no batching timer: generation throughput dominates).

    /** Queues a prefill-completed request for its next decode round. */
    void enqueueDecode(const Request& request);

    /** Total decode-waiting requests across models. */
    int decodeQueuedCount() const;

    /** Decode-waiting requests of one catalog model. */
    int decodeQueuedCount(int model) const;

    /**
     * The single-model mix formDecodeDispatch would build for this
     * model right now: the one-step decode variant at the boarders'
     * context bucket and quantized batch. Requires waiters.
     */
    MixPeek peekDecodeMix(int model) const;

    /**
     * Forms a decode round for one model, consuming the boarding
     * requests. Boarding follows options().llmBatching: Continuous
     * boards the FIFO prefix up to the batch cap; Static boards the
     * oldest locked batch if one is waiting, else locks a fresh one.
     * Each boarded request is stamped with ridingDecodeSteps = the
     * round's step count (0 for finished lockstep padding); the
     * dispatch carries llmDecodeSteps > 0.
     */
    Dispatch formDecodeDispatch(int model);

    const std::vector<ServedModel>& catalog() const { return catalog_; }

    const AdmissionOptions& options() const { return options_; }

  private:
    int dispatchBatch(std::size_t model) const;
    /** Queue positions boarding the next decode round of `model`. */
    std::vector<std::size_t> decodeBoarders(std::size_t model) const;
    /**
     * The scheduled variant for queue `m`: the catalog model, or for
     * autoregressive entries the prefill variant at the queue's max
     * prompt bucket (identical in peek and form, so the mix-signature
     * handshake with the fleet holds).
     */
    const MixVariant& scheduledModel(std::size_t model) const;
    /** The interned one-step decode variant of `model` at a context
     *  bucket. */
    const MixVariant& decodeVariant(std::size_t model,
                                    std::int64_t ctxBucket) const;
    /** The shared peek path of peekDecodeMix / formDecodeDispatch:
     *  `model`'s decode variant at the round's bucket, batched for
     *  `boarded` riders. */
    MixPeek decodePeek(std::size_t model, std::int64_t ctxBucket,
                       std::size_t boarded) const;
    /** True when queue `model` holds a request urgent at nowSec. */
    bool modelUrgent(std::size_t model, double nowSec,
                     double slackSec) const;
    /** The urgent models at (nowSec, slackSec), one flag per queue. */
    std::vector<bool> urgentModels(double nowSec, double slackSec) const;
    /** The shared peek path of peekMix / peekUrgentMix: the
     *  non-empty queues flagged in `take`. */
    MixPeek peekWhere(const std::vector<bool>& take) const;
    /** Fills the signature and batch-slot sum of peek.parts. */
    static void finishPeek(MixPeek& peek);
    /** The shared queue-draining path of formDispatch /
     *  formUrgentDispatch. */
    Dispatch formFrom(const std::vector<bool>& take);
    /** Re-derives queue m's earliest deadline and max prompt after
     *  a drain. */
    void refreshQueueStats(std::size_t model);

    std::vector<ServedModel> catalog_;
    AdmissionOptions options_;
    std::vector<std::deque<Request>> queues_; ///< per model, FIFO
    /** Earliest deadline per queue (infinity when empty). */
    std::vector<double> earliestDeadline_;
    /** Longest prompt per queue (prefill bucket of LLM entries). */
    std::vector<std::int64_t> maxPrompt_;
    /** Per-model decode-round waiting rooms (LLM entries only). */
    std::vector<std::deque<Request>> decodeQueues_;
    /** Next Static-mode locked-batch id (monotone, deterministic). */
    std::int64_t nextLlmBatchId_ = 0;

    // Interned scheduled variants: the plain ones at construction,
    // the LLM ones on first use (from const peeks, hence mutable).
    // Map nodes never move, so MixPart pointers stay valid.
    std::vector<MixVariant> plainVariants_; ///< per catalog model
    /** Prefill variants per catalog model, by prompt bucket. */
    mutable std::vector<std::map<std::int64_t, MixVariant>> prefill_;
    /** Decode-step variants per catalog model, by context bucket. */
    mutable std::vector<std::map<std::int64_t, MixVariant>> decode_;
    mutable long materializedMixes_ = 0;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_ADMISSION_H
