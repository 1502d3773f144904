/**
 * @file
 * Online serving request types.
 *
 * The offline scheduler (sched/scar.h) answers "how should this model
 * mix share the MCM"; the serving runtime answers "what happens when
 * requests for those models arrive continuously". A Request is one
 * inference demand for one catalog model, carrying an arrival time and
 * an SLO deadline:
 *  - datacenter models use MLPerf-style per-request latency targets;
 *  - AR/VR models use frame deadlines (1/fps of the XRBench cadence).
 *
 * Times are virtual seconds on the simulator clock (the window replay
 * converts schedule cycles through common/units.h).
 */

#ifndef SCAR_RUNTIME_REQUEST_H
#define SCAR_RUNTIME_REQUEST_H

#include <cstdint>
#include <limits>

#include "workload/model.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace runtime
{

/**
 * Autoregressive serving profile for a catalog model. When
 * `autoregressive` is set, the catalog entry's `model` field only
 * names the family and caps the batch; the runtime builds per-request
 * prefill and per-step decode variants from `decoder`
 * (workload/transformer_builder.h) with prompt/context lengths
 * rounded up to the bucket sizes, so one solved schedule covers every
 * request inside a bucket.
 */
struct LlmProfile
{
    bool autoregressive = false;
    /** Decoder architecture; name/batch are taken from the catalog. */
    TransformerConfig decoder;
    /** Prompt lengths round up to this bucket for prefill variants. */
    std::int64_t promptBucket = 64;
    /** Context lengths round up to this bucket for decode variants. */
    std::int64_t contextBucket = 256;
    /** Max decode steps a single decode round may batch together. */
    int maxDecodeSteps = 32;
    /** Mean prompt length for generated traffic (arrival.h). */
    std::int64_t meanPromptTokens = 128;
    /** Prompt length cap for generated traffic. */
    std::int64_t maxPromptTokens = 512;
    /** Mean of the geometric output-length draw (long-tail chat). */
    double meanOutputTokens = 64.0;
    /** Output length cap for generated traffic. */
    std::int64_t maxOutputTokens = 512;
};

/** One model offered for serving, with its traffic and SLO profile. */
struct ServedModel
{
    Model model;          ///< layers + max batch the cost model sees
    double rateRps = 1.0; ///< mean Poisson arrival rate (requests/s)
    /**
     * Per-request latency SLO in seconds (arrival to completion).
     * Infinity disables SLO accounting for the model.
     */
    double sloSec = std::numeric_limits<double>::infinity();
    /** Autoregressive decode profile; default = plain one-shot model. */
    LlmProfile llm;
};

/** Frame-deadline SLO for an AR/VR model running at the given fps. */
inline double
frameDeadlineSec(double fps)
{
    return 1.0 / fps;
}

/** One inference request against a catalog model. */
struct Request
{
    std::int64_t id = -1;
    int modelIdx = -1;       ///< index into the serving catalog
    double arrivalSec = 0.0;
    /** Absolute deadline: arrival + the model's SLO. */
    double deadlineSec = std::numeric_limits<double>::infinity();
    /** When the request's batch started executing (-1 = not yet). */
    double dispatchSec = -1.0;
    /** When the request's model finished its layers (-1 = not yet). */
    double completionSec = -1.0;
    /**
     * True when the request's replay was suspended at a window
     * boundary to serve a more urgent dispatch and later resumed
     * (runtime/executor.h). The serving report aggregates the tail
     * latency of these requests separately — the cost side of the
     * preemption trade.
     */
    bool preempted = false;

    // ---- autoregressive (LLM) state ------------------------------
    // Zero `outputTokens` marks a plain one-shot request; the fields
    // below are inert then and the serving paths ignore them.

    /** Prompt tokens consumed by the prefill pass (LLM only). */
    int promptTokens = 0;
    /** Total output tokens to generate; >= 1 for LLM requests. */
    int outputTokens = 0;
    /** Tokens generated so far (prefill completion yields the 1st). */
    int generatedTokens = 0;
    /** Virtual time the first token landed (-1 = prefill pending). */
    double firstTokenSec = -1.0;
    /**
     * Decode steps the rider's current decode round advances; stamped
     * at dispatch formation, consumed (credited to generatedTokens)
     * when the round completes or is cut for a continuous-batching
     * join. Zero outside a decode round.
     */
    int ridingDecodeSteps = 0;
    /**
     * Static batch-and-replay identity: riders locked into one decode
     * batch share an id and retire together. -1 = not locked
     * (continuous mode never locks).
     */
    std::int64_t llmBatchId = -1;

    bool completed() const { return completionSec >= 0.0; }

    /** True once the prefill pass produced the first token. */
    bool prefillDone() const { return firstTokenSec >= 0.0; }

    /** Prompt + generated context length the KV cache holds. */
    std::int64_t
    contextTokens() const
    {
        return static_cast<std::int64_t>(promptTokens) + generatedTokens;
    }

    /** Time to first token; only meaningful once prefill completed. */
    double ttftSec() const { return firstTokenSec - arrivalSec; }

    /** End-to-end latency; only meaningful once completed. */
    double latencySec() const { return completionSec - arrivalSec; }

    /** Admission/batching/routing delay before the replay started. */
    double queueSec() const { return dispatchSec - arrivalSec; }

    /** Replay time, suspension gaps included; once completed. */
    double execSec() const { return completionSec - dispatchSec; }

    /** True when the request completed past its deadline. */
    bool
    sloViolated() const
    {
        return completed() && completionSec > deadlineSec;
    }
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_REQUEST_H
