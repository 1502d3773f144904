/**
 * @file
 * Multi-MCM fleet serving: one admission front-end routing batched
 * dispatches across N accelerator packages — homogeneous copies of
 * one template or a heterogeneous mix of templates — with
 * asynchronous (future-backed) schedule solves. The step from one
 * package toward the "millions of users" scale of the roadmap.
 *
 * Event loop (one virtual clock across the fleet): run() drives a
 * per-run FleetSimulator::Loop (fleet.cc). Each iteration fires the
 * due samples and goes to the first of these handlers that acts:
 *  - resumeIdle: once no urgent request is queued, a replay suspended
 *    by boundary preemption resumes from its cursor, charged a
 *    modeled re-staging overhead, never re-solved;
 *  - startDue: a parked dispatch whose schedule's *virtual* ready
 *    instant has come starts replaying (plus a weight re-staging
 *    overhead when the shard switches mixes); the wait up to that
 *    instant is the reported solve-stall time;
 *  - dispatchDecode / dispatchReady: LLM decode waiters, or a ready
 *    (or urgent) batch, are routed, formed and parked on a shard,
 *    whose AsyncScheduleCache finds the schedule or starts solving it.
 * When none acts and solves cost modeled time (modeledSolveSec > 0),
 * speculate starts the would-be mix's solve in the background for the
 * shard the dispatch is predicted to land on (unless that shard
 * already holds the schedule), so the search overlaps the in-flight
 * replays instead of stalling them; then
 * nextEvent moves the clock to the next arrival (commitArrival),
 * window boundary (fastForward, or tickOnce with its preemptAt and
 * joinCut checks), solve-ready, batching-timer or urgency instant.
 *
 * Boundary preemption (opt-in, PreemptionOptions): when a queued
 * request's slack shrinks to the threshold while every shard is
 * occupied, preemptAt suspends the replay crossing a window boundary
 * (executor.h SuspendedReplay) and the urgent models' batch takes the
 * freed shard. A shard parks at most one suspended replay (no nested
 * preemption), non-urgent dispatches cannot claim a shard that owes a
 * resume, and a replay already in its last window is never suspended
 * (preempting there is a no-op — the shard frees at that boundary
 * anyway). joinCut (LLM continuous batching) cuts a decode round with
 * new waiters at a step-aligned boundary, so the next round boards
 * old and new sequences together.
 *
 * Heterogeneous fleets: FleetOptions::shardTemplates gives each shard
 * its own McmConfig-style package (e.g. an NVDLA-heavy package for
 * GEMM-bound datacenter mixes next to a Shi-diannao-heavy package for
 * early-CNN AR/VR mixes). A schedule is only valid for the package it
 * was searched on, so every entry of the fleet's one schedule cache
 * is keyed by (mix signature, Mcm::signature()): different templates
 * never share a schedule, while identical shards deduplicate
 * fleet-wide.
 *
 * Routing policies pick the shard for a formed dispatch among the
 * currently idle shards: round-robin (fair rotation), least-loaded
 * (lowest accumulated busy time), mix-affinity (hash of the mix
 * signature, which concentrates each mix's schedules — and weight
 * residency — on one shard), or best-fit (cost-aware: estimated
 * completion instant of the dispatch on each candidate — cached
 * schedule makespan when resident, a WindowEvaluator-based estimate
 * otherwise, plus solve wait and switch overhead — lowest wins, ties
 * fall back to least-loaded). BestFit is what makes a heterogeneous
 * fleet pay off: it sends each mix to the package that executes it
 * fastest instead of to an arbitrary hash bucket.
 *
 * Determinism: everything observable (latencies, routing, stall
 * accounting, cache contents) is a function of virtual time only;
 * wall-clock solve speed affects how long run() takes, never what it
 * returns.
 *
 * Calendar fast-forward: between two consecutive *routing-decision*
 * events, the only events in the fleet are window-boundary crossings
 * — pure replay bookkeeping that touches one shard each. fastForward
 * exploits that: it crosses every boundary strictly before a
 * conservative lookahead bound B (forwardBound: the min over every
 * next-possible-routing-decision term) straight off the boundary
 * queue, in the (time, shard index) order tickOnce would take them,
 * without re-entering the loop head. The report, trace, and sampler
 * rows are exactly those of a one-tick-per-iteration loop. The
 * fast-forward is skipped only around a deferred dispatch and while a
 * preempted replay awaits its resume (both re-inspect the fleet after
 * every tick); docs/ARCHITECTURE.md tabulates every bound term with
 * its conservativeness argument.
 *
 * Event calendar: the per-event O(shards) scans of the serial loop
 * (next boundary, next parked-ready, candidate checks) are replaced
 * by incrementally maintained ordered indexes — a boundary queue, a
 * parked-solve queue, a replay-end queue, and free/occupied shard
 * sets — all updated at a single choke point (syncShard) whenever a
 * shard changes state (the fast-forward alone re-keys a boundary
 * queue entry in place), so picking the next event is O(log shards).
 *
 * Hierarchical routing: every dispatch, urgent or not, routes through
 * one index that groups shards into pods of identical package
 * templates — the cluster -> pod -> shard hierarchy. Within a pod,
 * every idle shard with the same previous-mix class (same last
 * replayed key, or never dispatched) has the *same* BestFit cost for
 * a given mix, and the occupied cost is monotone in the shard's
 * availability instant, so each pod is represented by O(1)
 * cheapest-in-class heads and BestFit folds over O(pods)
 * representatives instead of all N shards — O(log N)
 * maintenance per state change. Shards owing a resume (preemptive
 * fleets) carry a suspended tail in their cost and are priced one by
 * one. The fold applies the tie-breaks of an index-order scan over
 * every shard (lowest cost, idle over occupied, least-loaded, lowest
 * index); only chains of distinct costs spaced closer than the 1e-12
 * tie epsilon could make the two differ.
 *
 * Routing, speculation and the formed dispatch name the mix by the
 * admission controller's MixPeek (interned variants + signature), not
 * by a Scenario: one is materialized only for a makespan-estimate
 * memo miss, a speculative prefetch, or a dispatch-time lookup that
 * launches a solve, so warm serving builds none. Replay reads only
 * the cached window timings (schedule_cache.h CachedSchedule).
 */

#ifndef SCAR_RUNTIME_FLEET_H
#define SCAR_RUNTIME_FLEET_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/mcm.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "runtime/admission.h"
#include "runtime/arrival.h"
#include "runtime/async_schedule_cache.h"
#include "runtime/executor.h"
#include "runtime/serving_report.h"
#include "sched/scar.h"

namespace scar
{
namespace runtime
{

/** How a formed dispatch picks among idle shards. */
enum class RoutingPolicy
{
    RoundRobin,  ///< fair rotation over idle shards
    LeastLoaded, ///< idle shard with the least accumulated busy time
    MixAffinity, ///< hash(mix signature) -> shard, fallback least-loaded
    /**
     * Cost-aware: every shard — idle or occupied — is scored by the
     * estimated completion time of this dispatch on it: current
     * backlog (replay end / parked-solve end) + switch overhead +
     * solve wait + schedule makespan (cached, or a cheap
     * window-evaluator estimate), with least-loaded tie-breaking.
     * The dispatch goes to the cheapest idle shard; when an occupied
     * shard is strictly cheaper (its backlog wait is smaller than
     * the other package's makespan handicap), the dispatch is
     * *deferred* until that shard frees up. The only policy that
     * consults the cost model instead of queue depths — essential on
     * heterogeneous fleets, where deferral keeps slow-on-this-mix
     * packages free for the traffic they are good at. An urgent
     * dispatch never defers, nor does one that leaves requests
     * queued behind it (a queue past its cap), and a dispatch waits
     * for an occupied shard only within the deferral horizon (its
     * next window boundary plus one makespan of the deferred mix).
     */
    BestFit,
};

const char* routingPolicyName(RoutingPolicy policy);

/**
 * Request-level boundary-preemption knobs.
 *
 * AR/VR frame deadlines are an order of magnitude tighter than
 * datacenter SLOs; without preemption a 20 fps request landing behind
 * a long datacenter replay waits the full remaining makespan and
 * blows its deadline. With preemption enabled, a replay is suspended
 * at its next window boundary whenever a queued request's slack falls
 * to the threshold and no shard is free, the urgent batch runs, and
 * the suspended replay resumes from its cursor.
 */
struct PreemptionOptions
{
    /** Master switch. Disabled reproduces the non-preemptive runtime
     *  bit-for-bit (the urgency checks are never evaluated). */
    bool enabled = false;
    /**
     * A queued request is urgent once its slack (deadline - now) is
     * at or below this, in seconds. Larger values preempt earlier
     * (safer for the urgent request, more disruption); 0 preempts
     * only at the deadline instant itself.
     */
    double slackThresholdSec = 0.02;
    /**
     * Modeled weight re-staging charged on the virtual clock when a
     * suspended replay resumes — the preemption analogue of
     * ServingOptions::switchOverheadSec (the urgent dispatch itself
     * pays the ordinary switch overhead on the way in).
     */
    double resumeOverheadSec = 0.0;
};

/** Serving-simulation configuration (single package). */
struct ServingOptions
{
    ScarOptions scar;           ///< options for each cache-miss search
    AdmissionOptions admission; ///< batching policy
    /**
     * Modeled virtual latency of one schedule solve (the time the
     * package's host would spend searching). 0 makes solves free on
     * the virtual clock (they only cost wall time). Above 0, a batch
     * that is ready while every shard is busy starts its solve in the
     * background (speculate, in the file comment above), hiding this
     * latency behind the in-flight replays.
     */
    double modeledSolveSec = 0.0;
    /**
     * Modeled weight re-staging overhead charged before a shard
     * starts replaying a different mix than its previous dispatch.
     */
    double switchOverheadSec = 0.0;
    /** Request-level boundary preemption (off by default). */
    PreemptionOptions preemption;
    /**
     * Worker pool for background solves and the search fan-out
     * inside each solve (not owned); nullptr uses
     * ThreadPool::global().
     */
    ThreadPool* pool = nullptr;
};

/** Fleet-level configuration. */
struct FleetOptions
{
    ServingOptions serving;
    int shards = 1;                ///< MCM packages (copies of the
                                   ///< constructor template when
                                   ///< shardTemplates is empty)
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /**
     * Per-shard package templates for a heterogeneous fleet. Empty
     * (the default) keeps the homogeneous behavior: `shards` copies
     * of the constructor's template. Non-empty overrides the fleet
     * size — one shard per listed template (`shards` must then be
     * left at 1 or match the template count). Every template must
     * offer at least as many chiplets as the catalog has models.
     */
    std::vector<Mcm> shardTemplates;
    /**
     * Flight recorder for this fleet (not owned; nullptr disables all
     * observability). When set, run() records the full per-request
     * lifecycle (arrival -> queue -> dispatch -> replay windows ->
     * completion/preemption) as virtual-time trace events, bumps the
     * metrics registry, and samples queue depth / shard busyness /
     * cache hit rate on the recorder's fixed virtual interval.
     * Recording never changes a run's observable behavior: every hook
     * sits behind the null check, and the trace is a pure function of
     * virtual time, so it is byte-identical at any solver thread
     * count. One recorder should observe one run at a time — run()
     * resets the sampler and assumes the trace starts at t = 0.
     */
    obs::FlightRecorder* recorder = nullptr;
};

/** Simulates serving one request stream on a fleet of MCMs. */
class FleetSimulator
{
  public:
    /**
     * @param catalog the served models (traffic profile + SLOs)
     * @param mcm the package template; every shard is a copy unless
     *        options.shardTemplates assigns per-shard packages
     * @param options fleet + serving knobs
     */
    FleetSimulator(std::vector<ServedModel> catalog, Mcm mcm,
                   FleetOptions options = FleetOptions{});

    /**
     * Serves one request trace to completion and returns the
     * aggregate report (per-shard utilization, solve-stall and
     * switch-overhead totals included). The schedule cache persists
     * across run() calls; the report's cache counters cover this run
     * only.
     */
    ServingReport run(const std::vector<Request>& trace);

    /** Per-request completion records of the most recent run. */
    const std::vector<Request>& records() const { return records_; }

    /**
     * Scenarios the most recent run() materialized from admission
     * peeks (AdmissionController::materializedMixes): makespan-
     * estimate memo misses, speculative prefetches and dispatch-time
     * solves only, so 0 on a pass whose routing found every schedule
     * resident.
     */
    long materializedMixes() const { return materializedMixes_; }

    /** The fleet's schedule cache, shared by every shard. */
    const AsyncScheduleCache& cache() const { return cache_; }

    int shardCount() const
    {
        return static_cast<int>(shards_.size());
    }

    const std::vector<ServedModel>& catalog() const { return catalog_; }

    /** The package template of a shard (shard 0 by default, which is
     *  the constructor template in a homogeneous fleet). */
    const Mcm& mcm(int shard = 0) const;

    /**
     * The completion-cost estimate BestFit uses for a mix on a
     * shard's package when no solved schedule is resident: a
     * single-window WindowEvaluator pass over a trivial one-segment-
     * per-model placement, in seconds. Deterministic, memoized per
     * (mix, package) signature pair. Exposed for tests and for
     * offline what-if tooling.
     */
    double estimateMakespanSec(int shard, const Scenario& mix);

  private:
    class Loop; ///< one run()'s event loop (fleet.cc)

    struct Shard
    {
        ReplayExecutor executor;
        // Formed dispatch waiting for its schedule's virtual ready
        // instant (the executor is idle while one is parked here).
        bool hasPending = false;
        Dispatch pending;
        std::string pendingKey; ///< (mix, package) cache key
        double pendingReadySec = 0.0;
        /** Projected end of the parked dispatch's replay (solve
         *  ready + switch + makespan or its estimate): the backlog
         *  proxy BestFit charges for a parked shard. */
        double pendingEndSec = 0.0;
        /** Set when the dispatch-time lookup already had the
         *  schedule; spares the join() re-lookup on cache hits. */
        std::shared_ptr<const CachedSchedule> pendingSchedule;
        // A replay suspended at a window boundary, waiting to resume
        // once the shard quiets down. At most one per shard; a shard
        // owing a resume only accepts *urgent* dispatches until the
        // suspended replay has finished.
        bool hasSuspended = false;
        SuspendedReplay suspended;
        std::string suspendedKey; ///< (mix, package) key of the suspended replay
        // Per-run accounting.
        long dispatchesBefore = 0; ///< executor count at run start
        double busyUntilSec = 0.0; ///< end of the current replay
        double busySec = 0.0;
        double solveStallSec = 0.0;
        double switchOverheadSec = 0.0;
        long preemptions = 0;
        double resumeOverheadSec = 0.0;
        std::string lastKey; ///< (mix, package) key of the previous replay
        /** Trace bookkeeping: start instant of the window currently
         *  replaying (the span start when the next boundary ticks). */
        double traceWindowStartSec = 0.0;
    };

    /** The (mix signature, package signature) key of shard s. */
    std::string cacheKey(const std::string& mixSig,
                         std::size_t shard) const;

    /**
     * estimateMakespanSec with the (mix, package) memo key already
     * derived — the internal fast path: every runtime caller holds
     * the key it just used against the schedule cache. `lazyMix`
     * yields the Scenario and is called only on a memo miss, so a
     * routing probe materializes its peek only when the estimate is
     * new.
     */
    double estimateMakespanKeyed(
        const std::string& key, std::size_t shard, int numModels,
        const AsyncScheduleCache::MixFn& lazyMix);

    /**
     * One pod's schedule-cache state for the mix being routed, read
     * once per routing decision. Every shard of a pod shares its
     * package template, and the fleet has one cache, so for one mix
     * they share the cache key, the stored / in-flight state and the
     * makespan; nothing mutates the cache while a decision is made
     * (peek is const, the estimate memo holds pure values).
     */
    struct PodProbe
    {
        bool probed = false;      ///< key and cache state are set
        bool priced = false;      ///< makespanSec is set
        std::string key;          ///< (mix, package) cache key
        bool stored = false;      ///< schedule resident in the cache
        bool inFlight = false;    ///< background solve running
        double readySec = 0.0;    ///< in-flight solve's ready instant
        double makespanSec = 0.0; ///< cached makespan, else estimate

        /** Stored or in flight. */
        bool known() const { return stored || inFlight; }
    };

    /**
     * The pod probes of one routing decision for one peeked mix, one
     * slot per pod, filled lazily by probePod. The mix is named by
     * its MixPeek; the Scenario is materialized at most once per
     * decision, and only for a makespan-estimate memo miss, a
     * speculative prefetch or a dispatch-time solve — a routing
     * decision against resident schedules builds none.
     */
    struct RoutingProbes
    {
        const MixPeek& peek;
        const AdmissionController& admission;
        std::vector<PodProbe> pods;
        std::optional<Scenario> materialized;

        /** The peeked mix as a Scenario, materialized on first use. */
        const Scenario& mix()
        {
            if (!materialized)
                materialized = admission.materialize(peek);
            return *materialized;
        }
    };

    RoutingProbes newProbes(const MixPeek& peek,
                            const AdmissionController& admission) const
    {
        return {peek, admission, std::vector<PodProbe>(pods_.size()),
                std::nullopt};
    }

    /**
     * Shard s's pod probe: the first call in a decision builds the
     * key and peeks the cache; with `priced` it also fills the
     * makespan — the stored schedule's, or the WindowEvaluator
     * estimate only when none is stored.
     */
    const PodProbe& probePod(RoutingProbes& probes, std::size_t shard,
                             bool priced);

    /**
     * BestFit's completion-cost estimate for dispatching the probed
     * mix on shard s at nowSec: availability wait + switch overhead +
     * solve wait + makespan. The cache state and makespan come from
     * the shard's priced pod probe, so the per-shard work is
     * arithmetic on the shard's own backlog and previous key.
     * With `urgent` set and preemption enabled, a busy shard is
     * charged only the wait to its next window boundary — the instant
     * boundary preemption would free it — instead of its full replay
     * backlog, so cost-aware decisions (speculation targeting,
     * deferral) see the same completion instants the preemptive
     * executor will actually deliver. A shard owing a resume is
     * additionally charged the resume overhead plus the suspended
     * replay's remaining windows for non-urgent traffic.
     */
    double dispatchCostSec(std::size_t shard, const PodProbe& probe,
                           double nowSec, bool urgent) const;

    /**
     * Picks the target for the probed mix among idle pending-free
     * shards (for urgent dispatches, shards parking a suspended
     * replay qualify too — they are reserved *against non-urgent*
     * claims only), through the pod index: O(pods + suspended
     * shards) candidates per decision. Returns -1 when there is no
     * idle candidate — or, under BestFit with allowDefer, when an
     * occupied shard's projected completion beats every idle
     * candidate and the dispatch should wait for it (the caller
     * defers: the queue is left intact and re-routed on the next
     * event). Deferral is a latency play and only sound while the
     * queue fits in this one dispatch; under overflow (and for
     * urgent dispatches) the caller passes allowDefer = false so
     * every package keeps contributing throughput.
     */
    int routeDispatch(RoutingProbes& probes, double nowSec,
                      bool allowDefer, bool urgent);

    /**
     * The shard a speculative solve for the probed mix should warm:
     * the affinity shard (MixAffinity), the cost-cheapest shard
     * counting availability waits (BestFit), or the busy shard that
     * frees up first — the likeliest dispatch target — otherwise.
     * For an urgent mix the cost model sees boundary-preemption
     * waits, so the predicted target is the replay the preemptor
     * will actually suspend. Returns -1 when the cache already holds
     * or is already solving the target's (mix, package) schedule, so
     * no background solve is wasted re-deriving a resident schedule.
     * The BestFit scan and that final check share one probe per pod.
     * When the cache already holds or is solving the schedule for
     * every pod — the warm steady state — it returns -1 before
     * pricing any shard: whichever shard a policy predicts, its pod's
     * probe is known, and probes have no side effects.
     */
    int speculationTarget(RoutingProbes& probes, double nowSec,
                          bool urgent);

    /**
     * Shards ordered cheapest-first within each previous-mix class
     * (byClass), plus the head (cheapest entry) of every non-empty
     * class, globally ordered (heads).
     */
    struct ClassedIndex
    {
        std::map<std::string, std::set<std::pair<double, int>>> byClass;
        std::set<std::tuple<double, int, std::string>> heads;

        void insert(const std::string& cls, std::pair<double, int> entry);
        void erase(const std::string& cls, std::pair<double, int> entry);
    };

    /**
     * One routing pod: the shards sharing a package template. Within
     * a pod a given mix has one cache key, one makespan estimate, and
     * one switch-overhead rule per previous-mix class, so the
     * cheapest candidate of each class — the head of its
     * (busySec, shard) set — represents every shard of that class in
     * the BestFit fold. Occupied shards are indexed by availability
     * instant: their cost is monotone in it, so the earliest-available
     * shard of a class is its cheapest (shards owing a resume are left
     * out; see syncShard). The same sharing makes the pod the unit of
     * cache probing: a routing decision reads the cache once per pod
     * (PodProbe).
     */
    struct Pod
    {
        std::vector<int> shards;
        ClassedIndex idle;     ///< (busySec, shard) per class
        ClassedIndex occupied; ///< (availEndSec, shard) per class
    };

    /** The calendar/index keys shard s is currently registered
     *  under, so syncShard can erase them exactly before re-deriving
     *  the shard's state. */
    struct ShardIndexKeys
    {
        bool inBoundary = false;
        double boundarySec = 0.0;
        bool inPendingQ = false;
        double pendingSec = 0.0;
        bool inBusyEnd = false;
        double busyEndSec = 0.0;
        bool inFree = false;
        double freeBusySec = 0.0;
        std::string freeClass;
        bool inOcc = false;
        double occAvailSec = 0.0;
        std::string occClass;
        bool suspendedAny = false;
        bool suspendedIdle = false;
    };

    /**
     * The single choke point keeping every calendar and routing
     * index consistent with shard s's state. Called after each
     * mutation of a shard (park, start, tick, suspend, resume); the
     * fast-forward, whose ticks move only the boundary key, re-keys
     * that one entry itself. O(log N) per call.
     */
    void syncShard(std::size_t s);

    /** Re-syncs every shard (run() entry, after the per-run reset). */
    void rebuildCalendar();

    /**
     * The candidate representatives for the probed mix in one pod
     * index (Pod::idle or Pod::occupied): for every pod, the cheapest
     * shard of the matching / never-dispatched classes and the
     * cheapest shard that would pay a switch — at most two per pod,
     * covering the pod's full cost range — sorted by shard index so a
     * fold over them applies the index-order tie-breaks. The matching
     * class is the pod probe's key. Occupied shards are keyed by
     * availability instant, and always hold a non-empty class (they
     * replay or park a dispatch), so there the representatives are
     * the earliest-available shards of the matching class and of the
     * cheapest switching class.
     */
    std::vector<int> classReps(RoutingProbes& probes,
                               ClassedIndex Pod::*index);

    /**
     * BestFit's deferral-horizon rule: deferring to occupied shard s
     * is only allowed while the wait for it (its backlog end) stays
     * within the preemption-style horizon — the shard's next free
     * event (window boundary when replaying, solve-ready when parked)
     * plus one makespan of the deferred mix (from s's pod probe).
     */
    bool deferralWithinHorizon(std::size_t s, RoutingProbes& probes,
                               double nowSec);

    std::vector<ServedModel> catalog_;
    FleetOptions options_;
    std::vector<Mcm> templates_; ///< one per shard
    ThreadPool* pool_;
    AsyncScheduleCache cache_; ///< shared by every shard
    std::vector<Shard> shards_;
    std::vector<Request> records_;
    std::size_t rrNext_ = 0; ///< round-robin cursor

    // --- Event calendar (see syncShard) ---
    std::vector<ShardIndexKeys> idx_;          ///< one per shard
    std::set<std::pair<double, int>> boundaryQueue_; ///< busy shards
    std::set<std::pair<double, int>> pendingQueue_;  ///< parked shards
    std::set<std::pair<double, int>> busyEndQueue_;  ///< replay ends
    std::set<int> freeShards_; ///< idle, unparked, not suspended
    std::set<std::pair<double, int>> freeByBusy_; ///< (busySec, shard)
    std::set<int> suspended_;     ///< shards owing a resume
    std::set<int> suspendedIdle_; ///< ... of which currently idle

    // --- Hierarchical routing (cluster -> pod -> shard) ---
    std::vector<Pod> pods_;
    std::vector<int> podOf_; ///< shard -> pod

    /** Memoized WindowEvaluator makespan estimates, keyed like the
     *  schedule cache by (mix, package) signature. */
    std::map<std::string, double> makespanEstimates_;
    // Per-run routing-quality accounting (reset by run()).
    long contestedRoutes_ = 0;   ///< dispatches with >= 2 candidates
    long costOptimalRoutes_ = 0; ///< contested picks matching BestFit
    long materializedMixes_ = 0; ///< of the most recent run

    // --- Autoregressive serving (continuous batching) ---
    /** Any catalog entry has LlmProfile::autoregressive set. Gates
     *  every LLM code path (a catalog without LLM entries runs the
     *  pre-LLM event loop byte-for-byte) and arms the fast-forward's
     *  join-cut and mid-replay-release bound terms: decode requeues
     *  and join cuts are event-loop decisions, so the bound stops
     *  strictly before the first boundary where one could occur and
     *  leaves that tick to the single-tick path. */
    bool llmEnabled_ = false;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_FLEET_H
