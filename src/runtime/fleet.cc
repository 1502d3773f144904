#include "runtime/fleet.h"

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <tuple>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"
#include "cost/window_evaluator.h"

namespace scar
{
namespace runtime
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Cost ties below this are considered equal (routing tie-breaks). */
constexpr double kCostTieEps = 1e-12;

/** Bound on the (mix, package) -> makespan-estimate memo; far above
 *  any realistic distinct-pair count per simulator, it only guards
 *  unbounded growth over very long mix-churning lifetimes. */
constexpr std::size_t kMakespanMemoCap = 65536;

/** FNV-1a: a stable signature hash (std::hash varies per platform). */
std::size_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 1469598103934665603uLL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211uLL;
    }
    return static_cast<std::size_t>(h);
}

using ClassIndex =
    std::map<std::string, std::set<std::pair<double, int>>>;
using ClassHeads = std::set<std::tuple<double, int, std::string>>;

/** Inserts (key, shard) under cls, keeping `heads` = the minimum of
 *  every non-empty class set. */
void
insertClassed(ClassIndex& byClass, ClassHeads& heads,
              const std::string& cls, std::pair<double, int> entry)
{
    auto& bucket = byClass[cls];
    if (bucket.empty()) {
        bucket.insert(entry);
        heads.insert({entry.first, entry.second, cls});
        return;
    }
    const std::pair<double, int> head = *bucket.begin();
    bucket.insert(entry);
    if (entry < head) {
        heads.erase({head.first, head.second, cls});
        heads.insert({entry.first, entry.second, cls});
    }
}

/** Removes (key, shard) from cls, keeping `heads` consistent. */
void
eraseClassed(ClassIndex& byClass, ClassHeads& heads,
             const std::string& cls, std::pair<double, int> entry)
{
    const auto it = byClass.find(cls);
    SCAR_ASSERT(it != byClass.end(),
                "fleet: routing index class missing on erase");
    auto& bucket = it->second;
    const bool wasHead = *bucket.begin() == entry;
    bucket.erase(entry);
    if (wasHead) {
        heads.erase({entry.first, entry.second, cls});
        if (!bucket.empty())
            heads.insert({bucket.begin()->first,
                          bucket.begin()->second, cls});
    }
    if (bucket.empty())
        byClass.erase(it);
}

} // namespace

const char*
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:  return "round-robin";
      case RoutingPolicy::LeastLoaded: return "least-loaded";
      case RoutingPolicy::MixAffinity: return "mix-affinity";
      case RoutingPolicy::BestFit:     return "best-fit";
    }
    return "unknown";
}

FleetSimulator::FleetSimulator(std::vector<ServedModel> catalog,
                               Mcm mcm, FleetOptions options)
    : catalog_(std::move(catalog)), options_(std::move(options))
{
    SCAR_REQUIRE(!catalog_.empty(), "fleet: empty catalog");
    SCAR_REQUIRE(options_.shards >= 1, "fleet: need >= 1 shard");
    SCAR_REQUIRE(options_.serving.modeledSolveSec >= 0.0,
                 "fleet: negative modeledSolveSec");
    SCAR_REQUIRE(options_.serving.switchOverheadSec >= 0.0,
                 "fleet: negative switchOverheadSec");
    SCAR_REQUIRE(options_.serving.preemption.slackThresholdSec >= 0.0,
                 "fleet: negative preemption slack threshold");
    SCAR_REQUIRE(options_.serving.preemption.resumeOverheadSec >= 0.0,
                 "fleet: negative preemption resume overhead");
    // Mix signatures key the schedule cache by model name, so two
    // catalog entries sharing a name would silently replay each
    // other's schedules — as would names containing the signature's
    // own delimiter characters.
    std::set<std::string> names;
    for (const ServedModel& sm : catalog_) {
        SCAR_REQUIRE(sm.model.name.find_first_of("#=+@") ==
                         std::string::npos,
                     "fleet: catalog model name '", sm.model.name,
                     "' contains a signature delimiter (#, =, +, @)");
        SCAR_REQUIRE(names.insert(sm.model.name).second,
                     "fleet: duplicate catalog model name ",
                     sm.model.name);
        if (sm.llm.autoregressive)
            llmEnabled_ = true;
    }
    llmStreams_.assign(catalog_.size(), 0);

    // Heterogeneous fleets: one shard per listed template; otherwise
    // `shards` homogeneous copies of the constructor template.
    if (!options_.shardTemplates.empty()) {
        const int n =
            static_cast<int>(options_.shardTemplates.size());
        SCAR_REQUIRE(options_.shards == 1 || options_.shards == n,
                     "fleet: shards = ", options_.shards,
                     " conflicts with ", n, " shard templates");
        options_.shards = n;
        templates_ = std::move(options_.shardTemplates);
    } else {
        templates_.assign(options_.shards, mcm);
    }
    for (const Mcm& tpl : templates_)
        SCAR_REQUIRE(static_cast<int>(catalog_.size()) <=
                         tpl.numChiplets(),
                     "fleet: more catalog models than chiplets on ",
                     tpl.name());

    pool_ = options_.serving.pool != nullptr ? options_.serving.pool
                                             : &ThreadPool::global();
    const ScheduleCacheOptions cacheOpts{
        options_.serving.cacheCapacity};
    const int numCaches =
        options_.sharedCache ? 1 : options_.shards;
    for (int c = 0; c < numCaches; ++c)
        caches_.push_back(
            std::make_unique<AsyncScheduleCache>(*pool_, cacheOpts));
    shards_.resize(options_.shards);
    for (int s = 0; s < options_.shards; ++s) {
        shards_[s].cache =
            caches_[options_.sharedCache ? 0 : s].get();
    }

    // Routing pods: shards sharing a (package template, schedule
    // cache) pair are interchangeable up to their previous-mix class,
    // so they fold into one pod of the cluster -> pod -> shard
    // hierarchy. '|' appears in neither half, so the key is injective.
    std::map<std::string, int> podIndex;
    podOf_.resize(shards_.size(), -1);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const std::string key =
            templates_[s].signature() + "|" +
            std::to_string(options_.sharedCache ? 0
                                                : static_cast<int>(s));
        const auto [it, inserted] =
            podIndex.emplace(key, static_cast<int>(pods_.size()));
        if (inserted)
            pods_.emplace_back();
        pods_[it->second].shards.push_back(static_cast<int>(s));
        podOf_[s] = it->second;
    }
    idx_.resize(shards_.size());

    debug("fleet: ", shards_.size(), " shards",
          llmEnabled_ ? ", llm bound terms armed" : "",
          options_.serving.preemption.enabled
              ? ", urgency bound term armed"
              : "");
}

const AsyncScheduleCache&
FleetSimulator::cache(int shard) const
{
    SCAR_REQUIRE(shard >= 0 &&
                     shard < static_cast<int>(shards_.size()),
                 "fleet: cache index ", shard, " out of range");
    return *shards_[shard].cache;
}

const Mcm&
FleetSimulator::mcm(int shard) const
{
    SCAR_REQUIRE(shard >= 0 &&
                     shard < static_cast<int>(templates_.size()),
                 "fleet: template index ", shard, " out of range");
    return templates_[shard];
}

std::string
FleetSimulator::cacheKey(const std::string& mixSig,
                         std::size_t shard) const
{
    // '@' appears in neither signature alphabet (model names are
    // checked at construction), so the concatenation is injective.
    return mixSig + "@" + templates_[shard].signature();
}

double
FleetSimulator::estimateMakespanSec(int shard, const Scenario& mix)
{
    SCAR_REQUIRE(shard >= 0 &&
                     shard < static_cast<int>(templates_.size()),
                 "fleet: estimate shard ", shard, " out of range");
    return estimateMakespanKeyed(
        cacheKey(mix.signature(), static_cast<std::size_t>(shard)),
        static_cast<std::size_t>(shard), mix.numModels(),
        [&]() -> const Scenario& { return mix; });
}

double
FleetSimulator::estimateMakespanKeyed(
    const std::string& key, std::size_t shard, int numModels,
    const AsyncScheduleCache::MixFn& lazyMix)
{
    SCAR_REQUIRE(numModels <= templates_[shard].numChiplets(),
                 "fleet: estimate needs one chiplet per model (",
                 numModels, " models on ",
                 templates_[shard].numChiplets(), " chiplets)");
    auto it = makespanEstimates_.find(key);
    if (it != makespanEstimates_.end())
        return it->second;
    const Scenario& mix = lazyMix();

    // One single-window pass over a crude but composition-aware
    // placement: each model as one whole-model segment on the unused
    // chiplet whose dataflow class minimizes its total layer cycles,
    // heaviest model choosing first. Far coarser than the searched
    // schedule, but computed in microseconds, and it sees what makes
    // one package cheaper than another for this mix — the dataflow
    // classes on offer — which is all routing needs to *rank*
    // candidate templates.
    const Mcm& tpl = templates_[shard];
    const CostDb db(mix, tpl);
    // The estimate keeps the evaluator's defaults (contention +
    // roofline on) but follows the serving configuration's comm
    // fidelity: at CommFidelity::Phased, queueing congestion on the
    // estimate placement's weight/spill flows is exactly what lets
    // BestFit see a saturated interconnect that the static count
    // ignores (gated in bench_comm_fidelity).
    EvaluatorOptions evalOpts;
    evalOpts.fidelity = options_.serving.scar.window.eval.fidelity;
    const WindowEvaluator evaluator(db, evalOpts);

    struct ModelWork
    {
        int modelIdx;
        double bestCycles;
    };
    std::vector<ModelWork> order;
    std::vector<std::array<double, kNumDataflows>> cyclesByDf(
        mix.numModels());
    for (int m = 0; m < mix.numModels(); ++m) {
        double best = kInf;
        for (const Dataflow df : kAllDataflows) {
            double total = 0.0;
            for (int l = 0; l < mix.models[m].numLayers(); ++l)
                total += db.layerCycles(m, l, df);
            cyclesByDf[m][dataflowIndex(df)] = total;
            if (tpl.numWithDataflow(df) > 0)
                best = std::min(best, total);
        }
        order.push_back({m, best});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const ModelWork& a, const ModelWork& b) {
                         return a.bestCycles > b.bestCycles;
                     });

    std::vector<bool> used(tpl.numChiplets(), false);
    WindowPlacement placement;
    placement.models.resize(mix.numModels());
    for (const ModelWork& mw : order) {
        int bestChiplet = -1;
        double bestCycles = kInf;
        for (int c = 0; c < tpl.numChiplets(); ++c) {
            if (used[c])
                continue;
            const double cycles =
                cyclesByDf[mw.modelIdx][dataflowIndex(
                    tpl.chiplet(c).spec.dataflow)];
            if (bestChiplet < 0 || cycles < bestCycles) {
                bestChiplet = c;
                bestCycles = cycles;
            }
        }
        used[bestChiplet] = true;
        ModelPlacement mp;
        mp.modelIdx = mw.modelIdx;
        mp.segments.push_back(
            {LayerRange{0,
                        mix.models[mw.modelIdx].numLayers() - 1},
             bestChiplet});
        placement.models[mw.modelIdx] = std::move(mp);
    }
    const double sec =
        cyclesToSeconds(evaluator.evaluate(placement).latencyCycles);
    // Keep the memo bounded like the schedule caches it parallels; a
    // wholesale reset is fine because re-deriving an estimate is a
    // microsecond-scale single-window pass.
    if (makespanEstimates_.size() >= kMakespanMemoCap)
        makespanEstimates_.clear();
    makespanEstimates_.emplace(key, sec);
    return sec;
}

const FleetSimulator::PodProbe&
FleetSimulator::probePod(RoutingProbes& probes, std::size_t shard,
                         bool priced)
{
    PodProbe& probe =
        probes.pods[static_cast<std::size_t>(podOf_[shard])];
    if (!probe.probed) {
        probe.probed = true;
        probe.key = cacheKey(probes.peek.signature, shard);
        const CachePeek peek = shards_[shard].cache->peek(probe.key);
        probe.stored = peek.schedule != nullptr;
        probe.inFlight = peek.inFlight;
        probe.readySec = peek.readySec;
        if (probe.stored) {
            probe.priced = true;
            probe.makespanSec = peek.schedule->makespanSec;
        }
    }
    if (priced && !probe.priced) {
        probe.priced = true;
        probe.makespanSec = estimateMakespanKeyed(
            probe.key, shard, probes.peek.numModels(),
            [&]() -> const Scenario& { return probes.mix(); });
    }
    return probe;
}

double
FleetSimulator::dispatchCostSec(std::size_t shard,
                                const PodProbe& probe, double nowSec,
                                bool urgent) const
{
    SCAR_ASSERT(probe.priced,
                "fleet: dispatch cost of an unpriced pod probe");
    const Shard& sh = shards_[shard];
    const PreemptionOptions& preemption =
        options_.serving.preemption;
    // A shard owing a resume must replay the suspended remainder
    // (plus the modeled re-staging) before any non-urgent dispatch
    // can claim it; an urgent dispatch jumps that queue, so its cost
    // excludes the tail.
    const double suspendedTailSec =
        sh.hasSuspended && !urgent
            ? preemption.resumeOverheadSec +
                  sh.suspended.remainingSec
            : 0.0;
    // Backlog: zero for an idle candidate; for an occupied shard the
    // replay end, or the parked dispatch's projected replay end. An
    // urgent dispatch against a busy, preemptable shard waits only
    // until the next window boundary — where the preemptor cuts in —
    // rather than the full replay (at the last window the two
    // coincide: the shard frees at that boundary either way).
    double waitSec = suspendedTailSec;
    if (sh.executor.busy()) {
        if (urgent && preemption.enabled && !sh.hasSuspended)
            waitSec +=
                std::max(0.0, sh.executor.nextBoundarySec() - nowSec);
        else
            waitSec += std::max(0.0, sh.busyUntilSec - nowSec);
    } else if (sh.hasPending) {
        waitSec += std::max(0.0, sh.pendingEndSec - nowSec);
    }

    // The replay running right before this dispatch would be the
    // current one when busy, the parked one when a dispatch waits for
    // its solve, and the last finished one otherwise.
    const std::string& prevKey =
        sh.executor.busy()
            ? sh.lastKey
            : (sh.hasPending ? sh.pendingKey : sh.lastKey);
    double switchSec = 0.0;
    if (!prevKey.empty() && prevKey != probe.key)
        switchSec = options_.serving.switchOverheadSec;

    // An in-flight solve lands while the backlog drains; only the
    // part outlasting the wait delays this dispatch. (A peek reports
    // a stored schedule or an in-flight solve, never both.)
    double solveSec = 0.0;
    if (probe.inFlight)
        solveSec = std::max(0.0, probe.readySec - nowSec - waitSec);
    else if (!probe.stored)
        solveSec = options_.serving.modeledSolveSec;
    return waitSec + switchSec + solveSec + probe.makespanSec;
}

int
FleetSimulator::routeDispatch(RoutingProbes& probes, double nowSec,
                              bool allowDefer, bool urgent)
{
    // A shard parking a suspended replay is reserved for its resume:
    // only urgent dispatches (the reason it was preempted at all) may
    // claim it first — otherwise arbitrary ready batches could starve
    // the preempted requests indefinitely. Few shards owe a resume at
    // once, so the idle ones are scanned from suspendedIdle_ rather
    // than indexed by cost.
    auto isCandidate = [&](int s) {
        return idx_[s].inFree || (urgent && idx_[s].suspendedIdle);
    };
    const std::size_t nCand =
        freeShards_.size() + (urgent ? suspendedIdle_.size() : 0);
    // Completion costs, computed at most once per shard and decision
    // and shared between BestFit's pick and the routing-quality
    // accounting; each pod's cache is probed once for all its shards.
    std::map<int, double> costMemo;
    auto costOf = [&](int s) {
        const auto it = costMemo.find(s);
        if (it != costMemo.end())
            return it->second;
        const auto shard = static_cast<std::size_t>(s);
        const double c = dispatchCostSec(
            shard, probePod(probes, shard, true), nowSec, urgent);
        costMemo.emplace(s, c);
        return c;
    };
    std::vector<int> reps;
    auto ensureReps = [&]() {
        if (reps.empty())
            reps = candidateReps(probes);
    };
    // Lowest (busySec, shard) among the candidates.
    auto leastLoaded = [&]() {
        int best = freeByBusy_.empty() ? -1 : freeByBusy_.begin()->second;
        if (urgent) {
            for (const int s : suspendedIdle_) {
                if (best < 0 ||
                    std::make_pair(shards_[s].busySec, s) <
                        std::make_pair(shards_[best].busySec, best))
                    best = s;
            }
        }
        return best;
    };
    // Lowest candidate index at or after `from`, or -1.
    auto firstFrom = [&](int from) {
        const auto it = freeShards_.lower_bound(from);
        int first = it == freeShards_.end() ? -1 : *it;
        if (urgent) {
            const auto sit = suspendedIdle_.lower_bound(from);
            if (sit != suspendedIdle_.end() && (first < 0 || *sit < first))
                first = *sit;
        }
        return first;
    };
    // The BestFit fold over the given shards, sorted by index so the
    // iteration-order tie-breaks match a scan over every shard: lowest
    // estimated completion cost; ties go to a candidate over an
    // occupied shard, then the least-loaded, then the lowest index —
    // the homogeneous-fleet degeneration of BestFit.
    auto fold = [&](const std::vector<int>& pool, bool candidatesOnly) {
        int best = -1;
        double bestCost = kInf;
        for (const int s : pool) {
            const bool candidate = isCandidate(s);
            if (candidatesOnly && !candidate)
                continue;
            const double cost = costOf(s);
            bool better = best < 0 || cost < bestCost - kCostTieEps;
            if (!better && cost < bestCost + kCostTieEps) {
                const bool bestCandidate = isCandidate(best);
                better =
                    (candidate && !bestCandidate) ||
                    (candidate == bestCandidate &&
                     shards_[s].busySec < shards_[best].busySec);
            }
            if (better) {
                best = s;
                bestCost = cost;
            }
        }
        return best;
    };

    int chosen = -1;
    switch (options_.routing) {
      case RoutingPolicy::RoundRobin:
        chosen = firstFrom(static_cast<int>(rrNext_));
        if (chosen < 0)
            chosen = firstFrom(0);
        if (chosen >= 0)
            rrNext_ = static_cast<std::size_t>(chosen) + 1;
        break;
      case RoutingPolicy::LeastLoaded:
        chosen = leastLoaded();
        break;
      case RoutingPolicy::MixAffinity: {
        const int target =
            static_cast<int>(fnv1a(probes.peek.signature) %
                             shards_.size());
        chosen = isCandidate(target) ? target : leastLoaded();
        break;
      }
      case RoutingPolicy::BestFit: {
        // Every pod's cheapest candidates, plus — with allowDefer —
        // its earliest-available occupied shards, charged their
        // backlog. A shard owing a resume is priced one by one: for
        // an urgent dispatch the idle ones are candidates, and for
        // deferral each carries its suspended tail, which the
        // occupied index cannot order. Deferral is myopic about the
        // queue behind this dispatch, so the caller disables it
        // under overflow (and for urgent dispatches) — otherwise a
        // saturated preferred shard would starve the rest of the
        // fleet while the backlog compounds.
        ensureReps();
        std::vector<int> pool = reps;
        if (allowDefer) {
            const std::vector<int> occ = occupiedReps(probes);
            pool.insert(pool.end(), occ.begin(), occ.end());
            pool.insert(pool.end(), suspended_.begin(), suspended_.end());
        } else if (urgent) {
            pool.insert(pool.end(), suspendedIdle_.begin(),
                        suspendedIdle_.end());
        }
        std::sort(pool.begin(), pool.end());
        const int best = fold(pool, false);
        if (best < 0 || isCandidate(best)) {
            chosen = best;
        } else if (!deferralWithinHorizon(
                       static_cast<std::size_t>(best), probes,
                       nowSec)) {
            // An occupied shard won, but its backlog outlasts the
            // deferral horizon: best idle candidate instead.
            chosen = fold(pool, true);
        }
        // Otherwise chosen stays -1: defer, the shard frees in time.
        break;
      }
    }
    if (chosen < 0)
        return -1;

    // Routing-quality accounting: when the policy actually had a
    // choice, did it pick a candidate the cost model also ranks
    // cheapest? (BestFit is cost-optimal by construction; the others
    // reveal how much completion time their heuristic leaves behind.)
    // The pod representatives cover every pod's cheapest candidate,
    // so with the idle suspended shards they give the minimum.
    if (nCand >= 2) {
        ++contestedRoutes_;
        ensureReps();
        double minCost = kInf;
        for (const int s : reps)
            minCost = std::min(minCost, costOf(s));
        if (urgent)
            for (const int s : suspendedIdle_)
                minCost = std::min(minCost, costOf(s));
        if (costOf(chosen) <= minCost + kCostTieEps)
            ++costOptimalRoutes_;
    }
    return chosen;
}

int
FleetSimulator::speculationTarget(RoutingProbes& probes, double nowSec,
                                  bool urgent)
{
    // Every pod's cache already holds or is solving the schedule: the
    // final check below would reject whichever shard a policy picks,
    // so skip the prediction (and its per-shard pricing) entirely.
    bool allKnown = true;
    for (const Pod& pod : pods_) {
        if (!probePod(probes,
                      static_cast<std::size_t>(pod.shards.front()),
                      false)
                 .known()) {
            allKnown = false;
            break;
        }
    }
    if (allKnown)
        return -1;

    const std::size_t n = shards_.size();
    int target = -1;
    switch (options_.routing) {
      case RoutingPolicy::MixAffinity:
        target = static_cast<int>(fnv1a(probes.peek.signature) % n);
        break;
      case RoutingPolicy::BestFit: {
        // Predict with the dispatch cost model itself, availability
        // waits included: the shard BestFit would pick once free.
        // For an urgent mix the costs see boundary-preemption waits,
        // so the solve warms the shard the preemptor will suspend.
        double bestCost = kInf;
        for (std::size_t s = 0; s < n; ++s) {
            const double cost = dispatchCostSec(
                s, probePod(probes, s, true), nowSec, urgent);
            if (target < 0 || cost < bestCost - kCostTieEps) {
                target = static_cast<int>(s);
                bestCost = cost;
            }
        }
        break;
      }
      case RoutingPolicy::RoundRobin:
      case RoutingPolicy::LeastLoaded: {
        // The dispatch will consult whichever shard becomes available
        // first — mid-replay (busyUntilSec) or parked waiting on a
        // solve (pendingReadySec) — so warm that shard's cache.
        double freeAt = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            double availableAt;
            if (shards_[s].executor.busy())
                availableAt = shards_[s].busyUntilSec;
            else if (shards_[s].hasPending)
                availableAt = shards_[s].pendingReadySec;
            else
                continue;
            if (target < 0 || availableAt < freeAt) {
                target = static_cast<int>(s);
                freeAt = availableAt;
            }
        }
        break;
      }
    }
    if (target < 0)
        target = 0;
    // A schedule already resident (or already solving) in the
    // predicted target's cache makes a speculative solve pure waste:
    // the dispatch-time lookup will hit. Before (mix, package) keys,
    // only the shared-cache configuration was protected against this
    // by prefetch idempotence.
    if (probePod(probes, static_cast<std::size_t>(target), false)
            .known())
        return -1;
    return target;
}

void
FleetSimulator::resumeSuspended(Shard& shard, double nowSec)
{
    SCAR_REQUIRE(shard.hasSuspended && !shard.executor.busy() &&
                     !shard.hasPending,
                 "fleet: resume on a shard not parking a suspended "
                 "replay");
    const double overheadSec =
        options_.serving.preemption.resumeOverheadSec;
    const double startSec = nowSec + overheadSec;
    shard.resumeOverheadSec += overheadSec;
    if (obs::FlightRecorder* const rec = options_.recorder) {
        const int tid =
            static_cast<int>(&shard - shards_.data()) + 1;
        rec->trace().instantVirtual(
            tid, "resume", "preemption", nowSec,
            {obs::argNum("remaining_sec",
                         shard.suspended.remainingSec)});
        if (overheadSec > 0.0)
            rec->trace().completeVirtual(tid, "resume-overhead",
                                         "overhead", nowSec,
                                         overheadSec);
        rec->metrics().counter("preemption.resumes").inc();
    }
    // Add back the remainder that suspension subtracted; the replay
    // continues from its saved cursor, never re-solved (the
    // SuspendedReplay pins the schedule, so even an LRU-evicted
    // cache entry stays valid).
    shard.busySec += shard.suspended.remainingSec;
    shard.busyUntilSec = startSec + shard.suspended.remainingSec;
    shard.traceWindowStartSec = startSec;
    shard.lastKey = shard.suspendedKey;
    shard.hasSuspended = false;
    shard.executor.resume(std::move(shard.suspended), startSec);
    shard.suspended = SuspendedReplay{};
    shard.suspendedKey.clear();
}

void
FleetSimulator::parkDispatch(int target, RoutingProbes& probes,
                             Dispatch dispatch, double nowSec,
                             const ScheduleCache::ComputeFn& compute,
                             const char* counter)
{
    Shard& shard = shards_[target];
    const std::string& sig = probes.peek.signature;
    const std::string key =
        cacheKey(sig, static_cast<std::size_t>(target));
    // The Scenario is materialized only if the lookup launches a
    // solve or the makespan estimate is new.
    const auto mix = [&]() -> const Scenario& { return probes.mix(); };
    const AsyncLookup found = shard.cache->lookup(
        key, mix, compute, nowSec, options_.serving.modeledSolveSec);
    double endSec = found.readySec;
    if (!shard.lastKey.empty() && shard.lastKey != key)
        endSec += options_.serving.switchOverheadSec;
    // A decode round replays its one-step makespan llmDecodeSteps
    // times (0 on other dispatches, where the factor 1 is exact).
    endSec += (found.schedule != nullptr
                   ? found.schedule->makespanSec
                   : estimateMakespanKeyed(
                         key, static_cast<std::size_t>(target),
                         dispatch.mix.numModels(), mix)) *
              std::max(1, dispatch.llmDecodeSteps);
    shard.hasPending = true;
    shard.pending = std::move(dispatch);
    shard.pendingKey = key;
    shard.pendingReadySec = found.readySec;
    shard.pendingEndSec = endSec;
    shard.pendingSchedule = found.schedule;
    syncShard(static_cast<std::size_t>(target));
    shard.solveStallSec += std::max(0.0, found.readySec - nowSec);
    if (obs::FlightRecorder* const rec = options_.recorder) {
        const int tid = target + 1;
        // lookup() counts joining an in-flight solve as a hit; only a
        // lookup that launched the solve is a miss (matches
        // ScheduleCacheStats).
        const bool hit = !found.startedSolve;
        rec->trace().instantVirtual(tid, hit ? "cache-hit" : "cache-miss",
                                    "cache", nowSec,
                                    {obs::argText("mix", sig)});
        rec->metrics()
            .counter(hit ? "cache.hits" : "cache.misses")
            .inc();
        rec->metrics().counter(counter).inc();
        if (found.readySec > nowSec)
            rec->trace().completeVirtual(tid, "solve-stall", "stall",
                                         nowSec, found.readySec - nowSec,
                                         {obs::argText("mix", sig)});
    }
}

void
FleetSimulator::syncShard(std::size_t s)
{
    Shard& sh = shards_[s];
    ShardIndexKeys& k = idx_[s];
    Pod& pod = pods_[podOf_[s]];
    const int si = static_cast<int>(s);

    // Retract the keys the shard is registered under. Every index
    // mutation flows through this function, so the stored snapshot
    // keys are exact.
    if (k.inBoundary)
        boundaryQueue_.erase({k.boundarySec, si});
    if (k.inPendingQ)
        pendingQueue_.erase({k.pendingSec, si});
    if (k.inBusyEnd)
        busyEndQueue_.erase({k.busyEndSec, si});
    if (k.inFree) {
        freeShards_.erase(si);
        freeByBusy_.erase({k.freeBusySec, si});
        eraseClassed(pod.freeByClass, pod.freeHeads, k.freeClass,
                     {k.freeBusySec, si});
    }
    if (k.inOcc)
        eraseClassed(pod.occByClass, pod.occHeads, k.occClass,
                     {k.occAvailSec, si});
    if (k.suspendedAny)
        suspended_.erase(si);
    if (k.suspendedIdle)
        suspendedIdle_.erase(si);

    // Re-derive from the shard's current state.
    const bool busy = sh.executor.busy();
    k.inBoundary = busy;
    k.inBusyEnd = busy;
    if (busy) {
        k.boundarySec = sh.executor.nextBoundarySec();
        boundaryQueue_.insert({k.boundarySec, si});
        // The fast-forward bound keys on the executor's accumulated
        // final boundary, not busyUntilSec: the two can differ by
        // ulps and a fast-forward must never cross a dispatch-done
        // tick.
        k.busyEndSec = sh.executor.finalBoundarySec();
        busyEndQueue_.insert({k.busyEndSec, si});
    }
    k.inPendingQ = sh.hasPending && !busy;
    if (k.inPendingQ) {
        k.pendingSec = sh.pendingReadySec;
        pendingQueue_.insert({k.pendingSec, si});
    }
    k.suspendedAny = sh.hasSuspended;
    if (k.suspendedAny)
        suspended_.insert(si);
    k.suspendedIdle = sh.hasSuspended && !busy && !sh.hasPending;
    if (k.suspendedIdle)
        suspendedIdle_.insert(si);

    // Candidate rule of routeDispatch's non-urgent path.
    const bool candidate = !busy && !sh.hasPending && !sh.hasSuspended;
    k.inFree = candidate;
    if (candidate) {
        k.freeBusySec = sh.busySec;
        k.freeClass = sh.lastKey;
        freeShards_.insert(si);
        freeByBusy_.insert({k.freeBusySec, si});
        insertClassed(pod.freeByClass, pod.freeHeads, k.freeClass,
                      {k.freeBusySec, si});
    }
    // Occupied shards index by availability instant (replay end or
    // parked dispatch's projected end) — the dispatchCostSec wait is
    // monotone in it, so the earliest-available shard of a class is
    // its cheapest. prevKey follows dispatchCostSec: the running
    // replay's key when busy, the parked dispatch's otherwise. A
    // shard owing a resume is left out: its cost adds the suspended
    // tail, which breaks that order, so BestFit prices it from
    // suspended_ instead.
    const bool occupied = (busy || sh.hasPending) && !sh.hasSuspended;
    k.inOcc = occupied;
    if (occupied) {
        k.occClass = busy ? sh.lastKey : sh.pendingKey;
        k.occAvailSec = busy ? sh.busyUntilSec : sh.pendingEndSec;
        insertClassed(pod.occByClass, pod.occHeads, k.occClass,
                      {k.occAvailSec, si});
    }
}

void
FleetSimulator::rebuildCalendar()
{
    boundaryQueue_.clear();
    pendingQueue_.clear();
    busyEndQueue_.clear();
    freeShards_.clear();
    freeByBusy_.clear();
    suspended_.clear();
    suspendedIdle_.clear();
    for (Pod& pod : pods_) {
        pod.freeByClass.clear();
        pod.freeHeads.clear();
        pod.occByClass.clear();
        pod.occHeads.clear();
    }
    idx_.assign(shards_.size(), ShardIndexKeys{});
    for (std::size_t s = 0; s < shards_.size(); ++s)
        syncShard(s);
}

std::vector<int>
FleetSimulator::candidateReps(RoutingProbes& probes)
{
    static const std::string kNeverDispatched;
    std::vector<int> reps;
    for (const Pod& pod : pods_) {
        if (pod.freeByClass.empty())
            continue;
        const std::string& match =
            probePod(probes,
                     static_cast<std::size_t>(pod.shards.front()),
                     false)
                .key;
        // No-switch candidates: the matching class and the
        // never-dispatched class cost the same, so their joint
        // cheapest — min by (busySec, shard) — represents both.
        const std::pair<double, int>* noSwitch = nullptr;
        for (const std::string* cls : {&match, &kNeverDispatched}) {
            const auto it = pod.freeByClass.find(*cls);
            if (it == pod.freeByClass.end())
                continue;
            const std::pair<double, int>& head = *it->second.begin();
            if (noSwitch == nullptr || head < *noSwitch)
                noSwitch = &head;
        }
        if (noSwitch != nullptr)
            reps.push_back(noSwitch->second);
        // Switching candidates all pay the same overhead, so the
        // first class head outside the two no-switch classes — at
        // most two skips — is the cheapest of them all.
        for (const auto& head : pod.freeHeads) {
            const std::string& cls = std::get<2>(head);
            if (cls == match || cls.empty())
                continue;
            reps.push_back(std::get<1>(head));
            break;
        }
    }
    std::sort(reps.begin(), reps.end());
    return reps;
}

std::vector<int>
FleetSimulator::occupiedReps(RoutingProbes& probes)
{
    std::vector<int> reps;
    for (const Pod& pod : pods_) {
        if (pod.occByClass.empty())
            continue;
        const std::string& match =
            probePod(probes,
                     static_cast<std::size_t>(pod.shards.front()),
                     false)
                .key;
        const auto it = pod.occByClass.find(match);
        if (it != pod.occByClass.end())
            reps.push_back(it->second.begin()->second);
        // An occupied shard always has a non-empty class (it holds
        // or parks a dispatch), so only the match class is skipped.
        for (const auto& head : pod.occHeads) {
            if (std::get<2>(head) == match)
                continue;
            reps.push_back(std::get<1>(head));
            break;
        }
    }
    std::sort(reps.begin(), reps.end());
    return reps;
}

bool
FleetSimulator::deferralWithinHorizon(std::size_t s,
                                      RoutingProbes& probes,
                                      double nowSec)
{
    const Shard& sh = shards_[s];
    // The shard's next chance to take work: its next window boundary
    // while replaying (the instant preemption could cut in), or its
    // parked solve's ready instant.
    const double nextFreeSec = sh.executor.busy()
                                   ? sh.executor.nextBoundarySec()
                                   : sh.pendingReadySec;
    const double horizonSec = std::max(0.0, nextFreeSec - nowSec) +
                              probePod(probes, s, true).makespanSec;
    const double occWaitSec = std::max(
        0.0, (sh.executor.busy() ? sh.busyUntilSec : sh.pendingEndSec) -
                 nowSec);
    return occWaitSec <= horizonSec + kCostTieEps;
}

ServingReport
FleetSimulator::run(const std::vector<Request>& trace)
{
    for (std::size_t i = 1; i < trace.size(); ++i)
        SCAR_REQUIRE(trace[i - 1].arrivalSec <= trace[i].arrivalSec,
                     "fleet: trace not sorted by arrival time");

    // Per-run accounting reset; caches persist across runs.
    ScheduleCacheStats before;
    for (const auto& cache : caches_) {
        const ScheduleCacheStats s = cache->stats();
        before.hits += s.hits;
        before.misses += s.misses;
        before.evictions += s.evictions;
    }
    for (Shard& shard : shards_) {
        SCAR_REQUIRE(!shard.executor.busy() && !shard.hasPending &&
                         !shard.hasSuspended,
                     "fleet: run() while a shard is mid-dispatch");
        shard.dispatchesBefore = shard.executor.dispatchCount();
        shard.busySec = 0.0;
        shard.solveStallSec = 0.0;
        shard.switchOverheadSec = 0.0;
        shard.preemptions = 0;
        shard.resumeOverheadSec = 0.0;
        shard.lastKey.clear();
    }
    contestedRoutes_ = 0;
    costOptimalRoutes_ = 0;
    llmDecodeRounds_ = 0;
    llmJoins_ = 0;
    llmBoardedSum_ = 0;
    std::fill(llmStreams_.begin(), llmStreams_.end(), 0);
    // Flight recorder: rec == nullptr is the disabled state, and every
    // hook below sits behind that check — a disabled run does no
    // observability work and stays byte-identical to an uninstrumented
    // build. All recorded events carry virtual timestamps and are
    // emitted from this single-threaded loop, so an enabled trace is
    // deterministic at any solver thread count.
    obs::FlightRecorder* const rec = options_.recorder;
    if (rec) {
        rec->trace().setThreadName(0, "fleet");
        for (std::size_t s = 0; s < shards_.size(); ++s)
            rec->trace().setThreadName(
                static_cast<int>(s) + 1,
                "shard " + std::to_string(s) + " (" +
                    templates_[s].name() + ")");
        std::vector<std::string> columns{"queue_depth", "busy_shards",
                                         "cache_hit_rate"};
        for (std::size_t s = 0; s < shards_.size(); ++s)
            columns.push_back("shard" + std::to_string(s) + "_busy");
        for (const ServedModel& sm : catalog_)
            columns.push_back("queue_" + sm.model.name);
        rec->samples().reset();
        rec->samples().setColumns(std::move(columns));
    }
    AdmissionController admission(catalog_,
                                  options_.serving.admission);
    records_.clear();
    records_.reserve(trace.size());
    long paddedSlots = 0;

    // One compute closure per shard: a schedule is only meaningful
    // for the package it was searched on.
    std::vector<ScheduleCache::ComputeFn> computes;
    computes.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Mcm* tpl = &templates_[s];
        computes.push_back([this, tpl](const Scenario& mix) {
            ScarOptions so = options_.serving.scar;
            // Default the search onto the fleet's pool, but let an
            // explicit scar.pool or scar.threads setting win — the
            // ScarOptions contract (threads = 1 forces a serial
            // search) must keep working inside the serving runtime.
            if (so.pool == nullptr && so.threads == 0)
                so.pool = pool_;
            Scar scar(mix, *tpl, so);
            return scar.run();
        });
    }

    // The per-run reset above cleared lastKey (the routing class)
    // and the accounting the calendar keys snapshot, so re-derive
    // every index entry before the loop reads them.
    rebuildCalendar();

    auto anyBusyOrPending = [&]() {
        return !boundaryQueue_.empty() || !pendingQueue_.empty() ||
               !suspended_.empty();
    };
    // Mirrors routeDispatch's candidate rule: a shard parking a
    // suspended replay only counts for urgent dispatches.
    auto anyCandidate = [&](bool urgent) {
        return !freeShards_.empty() ||
               (urgent && !suspendedIdle_.empty());
    };
    const PreemptionOptions& preemption =
        options_.serving.preemption;
    // Preemption-eligibility: some queued request's slack has shrunk
    // to the threshold. Gated on `enabled` first so a disabled run
    // never evaluates the urgency predicates (bit-identical to the
    // non-preemptive runtime).
    auto urgentQueued = [&](double nowSec) {
        return preemption.enabled &&
               admission.urgentQueued(nowSec,
                                      preemption.slackThresholdSec);
    };

    std::size_t next = 0; // next arrival to admit
    double nowSec = 0.0;
    // The speculative peek only changes when the queues do; skip the
    // peek (its signature build and cache probes) on the (frequent)
    // other events.
    long queueEpoch = 0;
    long lastSpeculativeEpoch = -1;
    // Fixed-interval sampling on the virtual clock. The fleet state
    // is piecewise-constant between events (sample-and-hold), so the
    // value at each scheduled instant is the value now; rows are
    // stamped with the scheduled time, and the headline series double
    // as ph = C counter tracks in the trace. Fired at the loop head
    // and after each fast-forwarded tick (the serial loop fires a
    // tick's due samples at the head of the following iteration, so
    // the fast-forward replays the same interleaving).
    auto fireSamples = [&]() {
        while (rec && rec->samples().due(nowSec)) {
            const double atSec = rec->samples().nextSampleSec();
            const double queueDepth = admission.queuedCount();
            int busyShards = 0;
            for (const Shard& shard : shards_)
                busyShards += shard.executor.busy() ? 1 : 0;
            const long long cacheHits =
                rec->metrics().counter("cache.hits").value();
            const long long cacheMisses =
                rec->metrics().counter("cache.misses").value();
            const double hitRate =
                cacheHits + cacheMisses > 0
                    ? static_cast<double>(cacheHits) /
                          static_cast<double>(cacheHits + cacheMisses)
                    : 0.0;
            std::vector<double> row;
            row.reserve(3 + shards_.size() + catalog_.size());
            row.push_back(queueDepth);
            row.push_back(busyShards);
            row.push_back(hitRate);
            for (const Shard& shard : shards_)
                row.push_back(shard.executor.busy() ? 1.0 : 0.0);
            for (std::size_t m = 0; m < catalog_.size(); ++m)
                row.push_back(admission.queuedCount(
                    static_cast<int>(m)));
            rec->samples().push(row);
            rec->trace().counterVirtual("queue_depth", atSec,
                                        queueDepth);
            rec->trace().counterVirtual("busy_shards", atSec,
                                        busyShards);
            rec->trace().counterVirtual("cache_hit_rate", atSec,
                                        hitRate);
        }
    };
    // One crossed window boundary: the replay span, the completed
    // requests' records and lifecycle events. Shared verbatim by the
    // single-tick path and the fast-forward so both emit the exact
    // same byte stream.
    auto commitTick = [&](int shardIdx, WindowTick& tick) {
        Shard& sh = shards_[shardIdx];
        if (rec)
            rec->trace().completeVirtual(
                shardIdx + 1,
                "w" + std::to_string(tick.windowIdx), "replay",
                sh.traceWindowStartSec,
                tick.timeSec - sh.traceWindowStartSec,
                {obs::argInt("window", tick.windowIdx)});
        sh.traceWindowStartSec = tick.timeSec;
        // Autoregressive transition. For an LLM request a "completion"
        // at a window boundary is the end of one prefill or one decode
        // round, not necessarily the end of the request: unfinished
        // sequences re-enter the decode queue, and tick.completed is
        // filtered down to the truly retiring requests before the
        // generic record loop below. Empty for non-LLM catalogs, so a
        // run without LLM entries takes the pre-LLM path bit-for-bit.
        if (llmEnabled_ && !tick.completed.empty()) {
            // A decode round carries riders stamped by
            // formDecodeDispatch; at least one is unfinished (a fully
            // finished group retired at its previous round).
            bool decodeRound = false;
            for (const Request& req : tick.completed) {
                if (req.ridingDecodeSteps > 0) {
                    decodeRound = true;
                    break;
                }
            }
            bool allFinished = true;
            if (decodeRound) {
                for (Request& req : tick.completed) {
                    req.generatedTokens += req.ridingDecodeSteps;
                    req.ridingDecodeSteps = 0;
                    if (req.generatedTokens < req.outputTokens)
                        allFinished = false;
                }
                if (tick.dispatchDone)
                    --llmStreams_[tick.completed.front().modelIdx];
            }
            const bool lockstep =
                options_.serving.admission.llmBatching ==
                LlmBatchingMode::Static;
            std::vector<Request> retiring;
            retiring.reserve(tick.completed.size());
            for (Request& req : tick.completed) {
                if (!catalog_[req.modelIdx].llm.autoregressive) {
                    retiring.push_back(std::move(req));
                    continue;
                }
                if (!decodeRound) {
                    // Prefill completion = the first output token.
                    req.firstTokenSec = tick.timeSec;
                    req.generatedTokens = 1;
                    if (rec)
                        rec->trace().asyncInstantVirtual(
                            static_cast<std::uint64_t>(req.id),
                            "first-token", "request", tick.timeSec);
                }
                const bool finished =
                    req.generatedTokens >= req.outputTokens;
                // Static decode batches retire in lockstep: finished
                // members ride as padding until the whole batch is
                // done.
                if (finished &&
                    (!decodeRound || !lockstep || allFinished)) {
                    retiring.push_back(std::move(req));
                    continue;
                }
                req.completionSec = -1.0;
                admission.enqueueDecode(req);
                ++queueEpoch;
            }
            tick.completed = std::move(retiring);
        }
        for (Request& req : tick.completed) {
            records_.push_back(req);
            if (rec) {
                const std::string& model =
                    catalog_[req.modelIdx].model.name;
                const double queueSec =
                    req.dispatchSec - req.arrivalSec;
                const double execSec =
                    req.completionSec - req.dispatchSec;
                rec->trace().asyncEndVirtual(
                    static_cast<std::uint64_t>(req.id),
                    "req " + model, "request", tick.timeSec,
                    {obs::argNum("latency_sec", req.latencySec()),
                     obs::argNum("queue_sec", queueSec),
                     obs::argNum("exec_sec", execSec),
                     obs::argBool("slo_violated", req.sloViolated()),
                     obs::argBool("preempted", req.preempted)});
                rec->metrics().counter("requests.completed").inc();
                if (req.sloViolated())
                    rec->metrics()
                        .counter("requests.slo_violations")
                        .inc();
                rec->metrics()
                    .histogram("latency_sec")
                    .record(req.latencySec());
                rec->metrics()
                    .histogram("queue_wait_sec")
                    .record(queueSec);
                rec->metrics()
                    .histogram("exec_sec")
                    .record(execSec);
            }
        }
    };
    // Admits the next trace arrival: shared by the serial arrival
    // branch and the fast-forward (which absorbs arrivals that can
    // only enqueue). Timestamps come from the request itself, so the
    // rendered trace is identical on either path.
    auto commitArrival = [&]() {
        admission.enqueue(trace[next]);
        if (rec) {
            const Request& req = trace[next];
            const std::string& model =
                catalog_[req.modelIdx].model.name;
            std::vector<obs::TraceArg> args{
                obs::argText("model", model)};
            if (req.deadlineSec < kInf)
                args.push_back(
                    obs::argNum("deadline_sec", req.deadlineSec));
            rec->trace().asyncBeginVirtual(
                static_cast<std::uint64_t>(req.id), "req " + model,
                "request", req.arrivalSec, std::move(args));
            rec->metrics().counter("requests.arrived").inc();
        }
        ++next;
        ++queueEpoch;
    };
    while (next < trace.size() || admission.queuedCount() > 0 ||
           (llmEnabled_ && admission.decodeQueuedCount() > 0) ||
           anyBusyOrPending()) {
        fireSamples();

        // Urgency is loop-invariant within one event iteration
        // (nothing below changes the queues before the next event),
        // so the O(queued) deadline scan runs once per iteration.
        const bool urgent = urgentQueued(nowSec);

        // 0. Resume suspended replays on idle shards. While an urgent
        // request is queued the shard stays reserved for it (that is
        // what it was preempted for — and serving a back-to-back
        // urgent batch before resuming avoids a pointless
        // resume/re-preempt cycle); the moment urgency clears, the
        // preempted replay continues from its cursor.
        if (!urgent && !suspendedIdle_.empty()) {
            // A copy: syncShard retracts each resumed shard.
            const std::vector<int> idle(suspendedIdle_.begin(),
                                        suspendedIdle_.end());
            for (const int si : idle) {
                resumeSuspended(shards_[si], nowSec);
                syncShard(static_cast<std::size_t>(si));
            }
            continue;
        }

        // 1. Start parked dispatches whose schedule is usable now.
        // The pending queue holds exactly the parked-idle shards
        // keyed by ready instant, so the due set is its prefix; the
        // serial loop visited shards in index order, so sort the due
        // indices before starting them (start order fixes the trace
        // event order and the switch-overhead charging instant).
        bool started = false;
        std::vector<int> dueIdx;
        for (const auto& [readySec, si] : pendingQueue_) {
            if (readySec > nowSec)
                break;
            dueIdx.push_back(si);
        }
        std::sort(dueIdx.begin(), dueIdx.end());
        for (const int si : dueIdx) {
            Shard& shard = shards_[si];
            // Wall-clock join: blocks only if the background solve is
            // still running; the virtual clock is unaffected. Cache
            // hits parked their schedule at lookup time.
            auto schedule =
                shard.pendingSchedule != nullptr
                    ? std::move(shard.pendingSchedule)
                    : shard.cache->join(shard.pendingKey);
            double startSec = nowSec;
            if (!shard.lastKey.empty() &&
                shard.lastKey != shard.pendingKey &&
                options_.serving.switchOverheadSec > 0.0) {
                startSec += options_.serving.switchOverheadSec;
                shard.switchOverheadSec +=
                    options_.serving.switchOverheadSec;
                if (rec)
                    rec->trace().completeVirtual(
                        static_cast<int>(&shard - shards_.data()) + 1,
                        "switch", "overhead", nowSec,
                        options_.serving.switchOverheadSec);
            }
            if (rec) {
                for (const BatchGroup& group : shard.pending.groups)
                    for (const Request& req : group.requests)
                        rec->trace().asyncInstantVirtual(
                            static_cast<std::uint64_t>(req.id),
                            "dispatch", "request", startSec);
            }
            // A decode round replays the cached one-step schedule
            // llmDecodeSteps times (the executor tiles it), so every
            // round of the same (context bucket, batch) shares one
            // cached solve.
            shard.executor.start(std::move(schedule),
                                 std::move(shard.pending), startSec);
            shard.busySec += shard.executor.makespanSec();
            shard.busyUntilSec = startSec + shard.executor.makespanSec();
            shard.traceWindowStartSec = startSec;
            shard.lastKey = shard.pendingKey;
            shard.hasPending = false;
            shard.pendingKey.clear();
            shard.pendingSchedule.reset();
            syncShard(static_cast<std::size_t>(si));
            started = true;
        }
        if (started)
            continue;

        // 1.5 Decode rounds: a free shard and decode-queue waiters
        // form a single-model decode dispatch with no batching timer
        // (generation cadence dominates; a waiting sequence is never
        // better off idle). Runs before step 2 so decode streams keep
        // their cadence against competing prefill batches. Waiters
        // appear only at commitTick (prefill completion, round end or
        // join cut), so the very next loop iteration sees them here —
        // the event calendar needs no extra timer for decode work.
        if (llmEnabled_ && !freeShards_.empty() &&
            admission.decodeQueuedCount() > 0) {
            const bool continuous =
                options_.serving.admission.llmBatching ==
                LlmBatchingMode::Continuous;
            int decodeModel = -1;
            for (std::size_t m = 0; m < catalog_.size(); ++m) {
                const int waiters =
                    admission.decodeQueuedCount(static_cast<int>(m));
                if (waiters == 0)
                    continue;
                // Continuous batching holds waiters for the running
                // stream's next step boundary (join cut) instead of
                // opening a rival round — unless a full batch is
                // already waiting, which earns its own stream.
                if (continuous && llmStreams_[m] > 0 &&
                    waiters < catalog_[m].model.batch)
                    continue;
                decodeModel = static_cast<int>(m);
                break;
            }
            if (decodeModel >= 0) {
                const MixPeek peeked =
                    admission.peekDecodeMix(decodeModel);
                const std::string& sig = peeked.signature;
                RoutingProbes probes = newProbes(peeked, admission);
                const int target = routeDispatch(
                    probes, nowSec, /*allowDefer=*/false,
                    /*urgent=*/false);
                SCAR_ASSERT(target >= 0,
                            "fleet: decode round found no shard with "
                            "free shards available");
                ++queueEpoch;
                Dispatch dispatch =
                    admission.formDecodeDispatch(decodeModel);
                SCAR_ASSERT(dispatch.mix.signature == sig,
                            "fleet: decode dispatch mix diverged "
                            "from the routed peek");
                // Decode rounds do not add padded slots: occupancy
                // stays a prefill-batching metric, and each request
                // would otherwise be charged once per round. Decode
                // batch fill is reported as llmMeanDecodeBatch.
                ++llmStreams_[decodeModel];
                ++llmDecodeRounds_;
                llmBoardedSum_ += static_cast<long>(
                    dispatch.groups.front().requests.size());
                parkDispatch(target, probes, std::move(dispatch),
                             nowSec, computes[target],
                             "dispatches.decode");
                continue;
            }
        }

        // 2. Free shard + ready batch: route, then form and park a
        // dispatch. Routing happens on the peeked mix *before* the
        // queues are consumed so BestFit can defer: when an occupied
        // shard's projected completion beats every idle candidate,
        // the batch stays queued and is re-routed at the next event
        // (typically when the preferred shard frees up).
        bool deferred = false;
        // Speculative partial dispatch: with the flag set, a shard
        // that would otherwise idle claims whatever is queued right
        // now instead of waiting out the batching timer.
        const bool partialReady =
            options_.serving.admission.speculativePartialDispatch &&
            admission.queuedCount() > 0 && !freeShards_.empty();
        if ((admission.ready(nowSec) || urgent || partialReady) &&
            anyCandidate(urgent)) {
            // An urgent batch boards only the models holding an
            // urgent request (shortest possible fast lane) and is
            // dispatchable regardless of batch-fill / aging state.
            const MixPeek peeked =
                urgent ? admission.peekUrgentMix(
                             nowSec, preemption.slackThresholdSec)
                       : admission.peekMix();
            const std::string& sig = peeked.signature;
            // Overflow check: padded dispatch batches cover every
            // queued request unless some queue exceeded its cap, in
            // which case requests stay behind and deferral would
            // starve the fleet's throughput. Never defer an urgent
            // dispatch: it exists because some request cannot afford
            // to wait for a better package.
            const bool allowDefer =
                options_.bestFitDefer && !urgent &&
                admission.queuedCount() <= peeked.batchSlots;
            RoutingProbes probes = newProbes(peeked, admission);
            const int target =
                routeDispatch(probes, nowSec, allowDefer, urgent);
            if (target < 0) {
                deferred = true;
            } else {
                ++queueEpoch;
                Dispatch dispatch =
                    urgent ? admission.formUrgentDispatch(
                                 nowSec, preemption.slackThresholdSec)
                           : admission.formDispatch(nowSec);
                SCAR_ASSERT(dispatch.mix.signature == sig,
                            "fleet: dispatch mix diverged from the "
                            "routed peek");
                for (const BatchGroup& group : dispatch.groups)
                    paddedSlots += group.batch;
                parkDispatch(target, probes, std::move(dispatch),
                             nowSec, computes[target],
                             urgent ? "dispatches.urgent"
                                    : "dispatches.regular");
                continue;
            }
        }
        if (deferred && rec)
            rec->metrics().counter("routing.deferrals").inc();

        // 3. Ready batch but every shard occupied: solve the would-be
        // mix in the background so the search overlaps the replays.
        // Only worthwhile when solves cost virtual time — with a free
        // (modeledSolveSec = 0) solve there is no stall to hide, and
        // speculating on transient peek mixes would just burn extra
        // searches and distort the hit-rate counters.
        if (options_.speculativeSolve &&
            options_.serving.modeledSolveSec > 0.0 &&
            (admission.ready(nowSec) || urgent) &&
            queueEpoch != lastSpeculativeEpoch) {
            lastSpeculativeEpoch = queueEpoch;
            // Under urgency the next dispatch out is the urgent mix,
            // so that is the schedule worth warming.
            const MixPeek peeked =
                urgent ? admission.peekUrgentMix(
                             nowSec, preemption.slackThresholdSec)
                       : admission.peekMix();
            const std::string& peekedSig = peeked.signature;
            RoutingProbes probes = newProbes(peeked, admission);
            const int target =
                speculationTarget(probes, nowSec, urgent);
            if (target >= 0) {
                shards_[target].cache->prefetch(
                    cacheKey(peekedSig,
                             static_cast<std::size_t>(target)),
                    [&]() -> const Scenario& { return probes.mix(); },
                    computes[target],
                    nowSec + options_.serving.modeledSolveSec);
                if (rec) {
                    rec->trace().instantVirtual(
                        target + 1, "speculative-solve", "cache",
                        nowSec, {obs::argText("mix", peekedSig)});
                    rec->metrics()
                        .counter("solves.speculative")
                        .inc();
                }
            }
        }

        // 4. Advance the virtual clock to the next event. The
        // calendar's ordered sets hand over each next-event time in
        // O(log N); the boundary head ties exactly like the old scan
        // (strict <, so the lowest shard index wins equal times —
        // set order is (time, idx)).
        const double tArrival =
            next < trace.size() ? trace[next].arrivalSec : kInf;
        double tBoundary = kInf;
        int boundaryShard = -1;
        if (!boundaryQueue_.empty()) {
            tBoundary = boundaryQueue_.begin()->first;
            boundaryShard = boundaryQueue_.begin()->second;
        }
        const double tPending = !pendingQueue_.empty()
                                    ? pendingQueue_.begin()->first
                                    : kInf;
        // The batching timer only matters while a shard can accept a
        // dispatch: busy shards dispatch as soon as they free up. A
        // deferred batch is already past its timer — its next chance
        // is a state change (boundary / solve-ready / arrival), and
        // re-arming the elapsed timer would spin the loop in place.
        const double tTimer =
            (!deferred && anyCandidate(false) &&
             admission.queuedCount() > 0)
                ? admission.nextForcedDispatchSec()
                : kInf;
        // Urgency timer: the instant the next queued request's slack
        // crosses the preemption threshold, an urgent dispatch can
        // claim an idle shard without waiting for batch fill or the
        // forced-dispatch timer. Only armed while a candidate exists
        // (with none, the urgent batch's next chance is a window
        // boundary — where the preemptor acts — so boundary events
        // already cover it) and while not already urgent (step 2
        // either dispatched or, with no candidate, boundaries drive
        // progress; re-arming an elapsed instant would spin).
        const double tUrgent =
            (preemption.enabled && !urgent &&
             admission.queuedCount() > 0 && anyCandidate(true))
                ? admission.earliestDeadlineSec() -
                      preemption.slackThresholdSec
                : kInf;

        const double tNext = std::min(
            {tArrival, tBoundary, tPending, tTimer, tUrgent});
        SCAR_REQUIRE(tNext < kInf,
                     "fleet: event loop stalled with ",
                     admission.queuedCount(), " queued requests");
        nowSec = std::max(nowSec, tNext);

        if (tArrival <= tBoundary && tArrival <= tPending &&
            tArrival <= tTimer && tArrival <= tUrgent) {
            commitArrival();
        } else if (tBoundary <= tPending && tBoundary <= tTimer &&
                   tBoundary <= tUrgent) {
            // Calendar fast-forward. The serial loop's steps 0-3 are
            // provably no-ops strictly before the conservative bound B
            // — the min over every next-possible-routing-decision term
            // (docs/ARCHITECTURE.md tabulates each with its proof
            // sketch):
            //  - no suspension is parked (the gate below), so step 0
            //    never fires;
            //  - no parked schedule comes due before tPending >= B;
            //  - no shard frees before B (a dispatch-done tick lands
            //    at its final boundary >= B), so the candidate set is
            //    frozen and steps 1.5/2 cannot dispatch before the
            //    timer or an arrival, both >= B;
            //  - step 3 already speculated on the current queue
            //    epoch, or the guard caps B at the forced-dispatch
            //    instant where ready() could newly turn true;
            //  - under preemption, B <= the next urgency crossing U:
            //    for every tick t < U the per-tick urgency predicate
            //    (t >= deadline - slack, the same FP expression as
            //    U) is false bit-for-bit, so the preempt check after
            //    each committed tick is a no-op — and the queued
            //    deadlines cannot change before B because arrivals
            //    are never absorbed under preemption;
            //  - on LLM fleets, B stops strictly before the earliest
            //    step-aligned boundary where a decode round with
            //    already-queued waiters could take a join cut, and
            //    before the earliest mid-replay autoregressive
            //    completion (it enqueues decode waiters, moving the
            //    decode queues / queue epoch) — so decode queues,
            //    llmStreams_, and the join-cut predicate stay frozen
            //    across every committed tick, and the per-tick join
            //    check is a provable no-op.
            // So every window tick strictly before B commits without
            // re-entering the loop head. A deferred dispatch re-routes
            // after every tick, and a preemptive fleet with a parked
            // suspension (step 0 re-checks per tick) or an
            // already-urgent queue (the very next boundary suspends)
            // stays on the single-tick path: B = the head boundary.
            //
            // With no free shard (and none freeing before B), no
            // urgency, and speculation off, an arrival before B can
            // only enqueue — every routing decision needs a candidate
            // shard, and none appears until >= B — so arrivals are
            // absorbed into the fast-forward instead of capping B.
            // This is what lets a saturated fleet fast-forward whole
            // replay windows rather than one inter-arrival gap.
            // Preemption disables absorption: an absorbed arrival
            // could carry an earlier deadline and move the urgency
            // crossing into the past.
            const bool absorbArrivals = freeShards_.empty() &&
                                        !options_.speculativeSolve &&
                                        !preemption.enabled;
            double bound = tBoundary;
            if (!deferred &&
                (!preemption.enabled ||
                 (suspended_.empty() && !urgent))) {
                bound = kInf;
                if (!busyEndQueue_.empty())
                    bound = busyEndQueue_.begin()->first;
                bound = std::min(bound, tPending);
                if (!absorbArrivals)
                    bound = std::min(bound, tArrival);
                bound = std::min(bound, tTimer);
                if (options_.speculativeSolve &&
                    options_.serving.modeledSolveSec > 0.0 &&
                    admission.queuedCount() > 0 &&
                    queueEpoch != lastSpeculativeEpoch)
                    bound = std::min(bound,
                                     admission.nextForcedDispatchSec());
                // Preemption-aware term: the next urgency crossing,
                // on the same FP expression as the urgency timer —
                // unconditioned on candidate availability, because a
                // crossing is a routing decision either way (with a
                // candidate step 2 dispatches the urgent batch; with
                // none the next boundary tick suspends a replay).
                if (preemption.enabled && admission.queuedCount() > 0)
                    bound = std::min(bound,
                                     admission.earliestDeadlineSec() -
                                         preemption.slackThresholdSec);
                // Join-aware LLM terms, per busy shard.
                if (llmEnabled_) {
                    const bool continuous =
                        options_.serving.admission.llmBatching ==
                        LlmBatchingMode::Continuous;
                    for (const auto& [tb, si] : boundaryQueue_) {
                        (void)tb;
                        const Shard& sh = shards_[si];
                        const Dispatch& running = sh.executor.dispatch();
                        if (running.llmDecodeSteps > 0) {
                            // Decode round: riders retire only at the
                            // round's final boundary — the replay-end
                            // term already covers that slot release —
                            // so the hazard is a join cut at the next
                            // step-aligned boundary once waiters are
                            // queued for the round's model.
                            if (continuous &&
                                admission.decodeQueuedCount(
                                    running.groups.front().catalogIdx) >
                                    0)
                                bound = std::min(
                                    bound,
                                    sh.executor.nextStepBoundarySec());
                        } else {
                            // Prefill/mixed replay: an autoregressive
                            // group completing mid-replay enqueues
                            // decode waiters (commitTick bumps the
                            // decode queue and the queue epoch — a
                            // routing-decision source), so the bound
                            // stops strictly before the earliest such
                            // completion.
                            bound = std::min(
                                bound,
                                sh.executor.earliestGroupEndSec(
                                    [&](std::size_t m) {
                                        return catalog_
                                            [running.groups[m].catalogIdx]
                                                .llm.autoregressive;
                                    }));
                        }
                    }
                }
            }
            if (tBoundary < bound) {
                // Cross the ticks straight off the boundary queue in
                // its (time, shard) order — the order the loop head
                // picks them in — one shard's run at a time: the run
                // ends at the first tick >= B, after the next other
                // head, or after an absorbable arrival (the arrival
                // wins ties, like the serial branch order). The
                // sample block fires after each tick exactly like the
                // loop head does. A tick before B moves only its
                // shard's boundary key (it is never dispatch-done,
                // and commitTick touches no indexed field), so the
                // queue node is re-keyed in place of a syncShard.
                const auto arrivalDue = [&](double t) {
                    return absorbArrivals && next < trace.size() &&
                           trace[next].arrivalSec < bound &&
                           trace[next].arrivalSec <= t;
                };
                for (;;) {
                    const auto head = boundaryQueue_.begin();
                    const double tHead =
                        head != boundaryQueue_.end() &&
                                head->first < bound
                            ? head->first
                            : kInf;
                    if (arrivalDue(tHead)) {
                        nowSec = trace[next].arrivalSec;
                        commitArrival();
                        fireSamples();
                        continue;
                    }
                    if (tHead == kInf)
                        break;
                    auto node = boundaryQueue_.extract(head);
                    const int si = node.value().second;
                    const std::pair<double, int> other =
                        boundaryQueue_.empty()
                            ? std::make_pair(
                                  kInf, std::numeric_limits<int>::max())
                            : *boundaryQueue_.begin();
                    ReplayExecutor& executor = shards_[si].executor;
                    double tTick = tHead;
                    do {
                        WindowTick tick = executor.advance();
                        SCAR_ASSERT(!tick.dispatchDone,
                                    "fast-forward crossed shard ", si,
                                    "'s final boundary");
                        nowSec = tick.timeSec;
                        commitTick(si, tick);
                        fireSamples();
                        tTick = executor.nextBoundarySec();
                    } while (tTick < bound &&
                             std::make_pair(tTick, si) < other &&
                             !arrivalDue(tTick));
                    node.value().first = tTick;
                    idx_[si].boundarySec = tTick;
                    boundaryQueue_.insert(std::move(node));
                }
            } else {
                // Single-tick path: a pending deferral, a parked
                // suspension or already-urgent queue, or a bound at
                // the head boundary (e.g. a shard in its final window,
                // a join cut, a mid-replay LLM release, an urgency
                // crossing).
                Shard& sh = shards_[boundaryShard];
                WindowTick tick = sh.executor.advance();
                commitTick(boundaryShard, tick);
                // Boundary preemption: an urgent request is waiting,
                // no shard can take it, and this replay just reached
                // a cut point with windows still ahead — suspend it
                // here; the next loop iteration dispatches the urgent
                // batch onto the freed shard. When the tick ended the
                // dispatch the shard frees naturally (preempting at
                // the last window is the degenerate no-op), and a
                // shard already parking a suspended replay is never
                // preempted again (depth 1).
                if (!tick.dispatchDone && !sh.hasSuspended &&
                    urgentQueued(nowSec) && !anyCandidate(true)) {
                    sh.suspended = sh.executor.suspend();
                    sh.hasSuspended = true;
                    sh.suspendedKey = sh.lastKey;
                    // The remaining windows will be re-charged at
                    // resume.
                    sh.busySec -= sh.suspended.remainingSec;
                    ++sh.preemptions;
                    if (rec) {
                        rec->trace().instantVirtual(
                            boundaryShard + 1, "preempt",
                            "preemption", tick.timeSec,
                            {obs::argInt("next_window",
                                         static_cast<long long>(
                                             sh.suspended.window)),
                             obs::argNum(
                                 "remaining_sec",
                                 sh.suspended.remainingSec)});
                        // suspend() just marked every still-riding
                        // request preempted; tag their lifecycle
                        // tracks.
                        for (const BatchGroup& group :
                             sh.suspended.dispatch.groups)
                            for (const Request& req : group.requests)
                                if (req.preempted)
                                    rec->trace().asyncInstantVirtual(
                                        static_cast<std::uint64_t>(
                                            req.id),
                                        "preempted", "request",
                                        tick.timeSec);
                        rec->metrics()
                            .counter("preemption.suspends")
                            .inc();
                    }
                }
                // Continuous-batching join cut: waiters queued for the
                // model decoding on this shard, and the replay just
                // reached a step-aligned boundary with steps still
                // ahead — cut the round here (suspend without the
                // preemption mark), credit the riders with the steps
                // already replayed, and send everyone back to the
                // decode queue. The next iteration's step 1.5 forms
                // the merged round on the freed shard. Riders cannot
                // finish mid-round (the round's step count never
                // exceeds any rider's remaining tokens), so all of
                // them re-queue.
                if (llmEnabled_ && !tick.dispatchDone &&
                    !sh.hasSuspended && sh.executor.busy() &&
                    options_.serving.admission.llmBatching ==
                        LlmBatchingMode::Continuous) {
                    const Dispatch& running = sh.executor.dispatch();
                    const int model =
                        running.llmDecodeSteps > 0
                            ? running.groups.front().catalogIdx
                            : -1;
                    const int perStep =
                        static_cast<int>(sh.executor.windowsPerStep());
                    if (model >= 0 &&
                        admission.decodeQueuedCount(model) > 0 &&
                        (tick.windowIdx + 1) % perStep == 0) {
                        const int stepsDone =
                            (tick.windowIdx + 1) / perStep;
                        SuspendedReplay cut =
                            sh.executor.suspend(false);
                        sh.busySec -= cut.remainingSec;
                        --llmStreams_[model];
                        ++llmJoins_;
                        int riders = 0;
                        for (BatchGroup& group : cut.dispatch.groups) {
                            for (Request& req : group.requests) {
                                if (req.ridingDecodeSteps > 0)
                                    req.generatedTokens += stepsDone;
                                req.ridingDecodeSteps = 0;
                                req.completionSec = -1.0;
                                admission.enqueueDecode(req);
                                ++riders;
                            }
                        }
                        ++queueEpoch;
                        if (rec) {
                            rec->trace().instantVirtual(
                                boundaryShard + 1, "decode-join",
                                "llm", tick.timeSec,
                                {obs::argInt(
                                     "riders",
                                     static_cast<long long>(riders)),
                                 obs::argInt(
                                     "steps_done",
                                     static_cast<long long>(
                                         stepsDone))});
                            rec->metrics()
                                .counter("llm.joins")
                                .inc();
                        }
                    }
                }
                syncShard(static_cast<std::size_t>(boundaryShard));
            }
        }
        // Pending-ready, timer, and urgency events need no action
        // beyond advancing the clock: the loop head fires next
        // iteration.
    }

    materializedMixes_ = admission.materializedMixes();

    // Promote stray speculative solves so stats and cache sizes are
    // settled (and no background work bleeds past the run).
    for (const auto& cache : caches_)
        cache->drainInFlight();

    ScheduleCacheStats delta;
    long cachedMixes = 0;
    for (const auto& cache : caches_) {
        const ScheduleCacheStats s = cache->stats();
        delta.hits += s.hits;
        delta.misses += s.misses;
        delta.evictions += s.evictions;
        cachedMixes += static_cast<long>(cache->size());
    }
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.evictions -= before.evictions;

    long dispatches = 0;
    for (const Shard& shard : shards_)
        dispatches +=
            shard.executor.dispatchCount() - shard.dispatchesBefore;

    std::vector<std::string> modelNames;
    modelNames.reserve(catalog_.size());
    for (const ServedModel& sm : catalog_)
        modelNames.push_back(sm.model.name);
    ServingReport report = summarizeServing(
        records_, static_cast<long>(trace.size()), dispatches,
        paddedSlots, delta, cachedMixes, modelNames);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard& shard = shards_[s];
        ShardReport sr;
        sr.shardIdx = static_cast<int>(s);
        sr.mcmName = templates_[s].name();
        sr.dispatches =
            shard.executor.dispatchCount() - shard.dispatchesBefore;
        sr.busySec = shard.busySec;
        sr.utilization = report.horizonSec > 0.0
                             ? shard.busySec / report.horizonSec
                             : 0.0;
        sr.solveStallSec = shard.solveStallSec;
        sr.switchOverheadSec = shard.switchOverheadSec;
        sr.preemptions = shard.preemptions;
        report.solveStallSec += shard.solveStallSec;
        report.switchOverheadSec += shard.switchOverheadSec;
        report.preemptions += shard.preemptions;
        report.resumeOverheadSec += shard.resumeOverheadSec;
        report.shards.push_back(sr);
    }
    report.preemptionEnabled = options_.serving.preemption.enabled;
    report.llmEnabled = llmEnabled_;
    if (llmEnabled_) {
        report.llmDecodeRounds = llmDecodeRounds_;
        report.llmJoins = llmJoins_;
        report.llmMeanDecodeBatch =
            llmDecodeRounds_ > 0
                ? static_cast<double>(llmBoardedSum_) /
                      static_cast<double>(llmDecodeRounds_)
                : 0.0;
    }
    if (rec) {
        rec->metrics().gauge("horizon_sec").set(report.horizonSec);
        rec->metrics()
            .gauge("throughput_rps")
            .set(report.throughputRps);
        rec->metrics()
            .gauge("slo_violation_rate")
            .set(report.sloViolationRate);
        rec->metrics()
            .gauge("batch_occupancy")
            .set(report.batchOccupancy);
    }
    report.contestedRoutes = contestedRoutes_;
    report.costOptimalRoutes = costOptimalRoutes_;
    report.costOptimalRouteFrac =
        contestedRoutes_ > 0
            ? static_cast<double>(costOptimalRoutes_) /
                  static_cast<double>(contestedRoutes_)
            : 1.0;
    inform("fleet: ", report.completed, "/", report.offered,
           " requests over ", shards_.size(), " shard(s) (",
           routingPolicyName(options_.routing), ") in ",
           report.dispatches, " dispatches, ", delta.misses,
           " schedule solves (", cachedMixes, " mixes cached)");
    if (options_.serving.preemption.enabled)
        inform("fleet: ", report.preemptions,
               " boundary preemptions, ", report.preemptedRequests,
               " preempted requests resumed");
    if (llmEnabled_)
        inform("fleet: ", report.llmDecodeRounds, " decode rounds, ",
               report.llmJoins, " continuous-batching joins");
    return report;
}

} // namespace runtime
} // namespace scar
