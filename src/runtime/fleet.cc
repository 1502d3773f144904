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
    : catalog_(std::move(catalog)), options_(std::move(options)),
      pool_(options_.serving.pool != nullptr ? options_.serving.pool
                                             : &ThreadPool::global()),
      cache_(*pool_)
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

    shards_.resize(options_.shards);

    // Routing pods: shards sharing a package template are
    // interchangeable up to their previous-mix class, so they fold
    // into one pod of the cluster -> pod -> shard hierarchy.
    std::map<std::string, int> podIndex;
    podOf_.resize(shards_.size(), -1);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const auto [it, inserted] = podIndex.emplace(
            templates_[s].signature(), static_cast<int>(pods_.size()));
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
    evalOpts.fidelity = options_.serving.scar.eval.fidelity;
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
    // Keep the memo bounded. Unlike the schedule cache, which keeps
    // every solve, a wholesale reset is cheap here: re-deriving an
    // estimate is a microsecond-scale single-window pass.
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
        const CachePeek peek = cache_.peek(probe.key);
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
        !sh.executor.busy() && sh.hasPending ? sh.pendingKey : sh.lastKey;
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
            reps = classReps(probes, &Pod::idle);
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
            const std::vector<int> occ = classReps(probes, &Pod::occupied);
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
FleetSimulator::ClassedIndex::insert(const std::string& cls,
                                     std::pair<double, int> entry)
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

void
FleetSimulator::ClassedIndex::erase(const std::string& cls,
                                    std::pair<double, int> entry)
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
            heads.insert({bucket.begin()->first, bucket.begin()->second,
                          cls});
    }
    if (bucket.empty())
        byClass.erase(it);
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
        pod.idle.erase(k.freeClass, {k.freeBusySec, si});
    }
    if (k.inOcc)
        pod.occupied.erase(k.occClass, {k.occAvailSec, si});
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
        pod.idle.insert(k.freeClass, {k.freeBusySec, si});
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
        pod.occupied.insert(k.occClass, {k.occAvailSec, si});
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
    for (Pod& pod : pods_)
        pod.idle = pod.occupied = ClassedIndex{};
    idx_.assign(shards_.size(), ShardIndexKeys{});
    for (std::size_t s = 0; s < shards_.size(); ++s)
        syncShard(s);
}

std::vector<int>
FleetSimulator::classReps(RoutingProbes& probes, ClassedIndex Pod::*index)
{
    static const std::string kNeverDispatched;
    std::vector<int> reps;
    for (const Pod& pod : pods_) {
        const ClassedIndex& classes = pod.*index;
        if (classes.byClass.empty())
            continue;
        const std::string& match =
            probePod(probes,
                     static_cast<std::size_t>(pod.shards.front()),
                     false)
                .key;
        // No-switch candidates: the matching class and the
        // never-dispatched class cost the same, so their joint
        // cheapest — min by (cost key, shard) — represents both.
        const std::pair<double, int>* noSwitch = nullptr;
        for (const std::string* cls : {&match, &kNeverDispatched}) {
            const auto it = classes.byClass.find(*cls);
            if (it == classes.byClass.end())
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
        for (const auto& head : classes.heads) {
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

/**
 * One run() of the event loop; fleet.h's file comment lists its
 * handlers. It owns the per-run state — the admission queues, the
 * trace cursor, the virtual clock, the queue epochs, one solve closure
 * per shard, and the LLM stream counters — so none of it is reset by
 * hand between runs.
 */
class FleetSimulator::Loop
{
  public:
    Loop(FleetSimulator& fleet, const std::vector<Request>& trace)
        : fleet_(fleet), shards_(fleet.shards_), options_(fleet.options_),
          trace_(trace), rec_(options_.recorder),
          preemption_(options_.serving.preemption),
          continuous_(options_.serving.admission.llmBatching ==
                      LlmBatchingMode::Continuous),
          speculating_(options_.serving.modeledSolveSec > 0.0),
          admission_(fleet.catalog_, options_.serving.admission),
          llmStreams_(fleet.catalog_.size(), 0)
    {
        beginRun();
    }

    /** One event iteration; false, doing nothing, once no work
     *  remains (no arrival to admit, no queued request, no shard
     *  replaying, parked, or owing a resume). */
    bool step()
    {
        if (next_ == trace_.size() && admission_.queuedCount() == 0 &&
            (!fleet_.llmEnabled_ || admission_.decodeQueuedCount() == 0) &&
            fleet_.boundaryQueue_.empty() && fleet_.pendingQueue_.empty() &&
            fleet_.suspended_.empty())
            return false;
        fireSamples();
        // Urgency is loop-invariant within one event iteration
        // (nothing below changes the queues before the next event),
        // so the O(queued) deadline scan runs once per iteration.
        const bool urgent = urgentQueued();
        if (resumeIdle(urgent) || startDue() || dispatchDecode())
            return true;
        const Routed routed = dispatchReady(urgent);
        if (routed == Routed::Parked)
            return true;
        speculate(urgent);
        nextEvent(urgent, routed == Routed::Deferred);
        return true;
    }

    ServingReport finishReport()
    {
        auditRun();
        fleet_.materializedMixes_ = admission_.materializedMixes();

        // Promote stray speculative solves so stats and cache size are
        // settled (and no background work bleeds past the run).
        fleet_.cache_.drainInFlight();

        const auto cachedMixes = static_cast<long>(fleet_.cache_.size());
        ScheduleCacheStats delta = fleet_.cache_.stats();
        delta.hits -= before_.hits;
        delta.misses -= before_.misses;

        long dispatches = 0;
        for (const Shard& shard : shards_)
            dispatches +=
                shard.executor.dispatchCount() - shard.dispatchesBefore;

        std::vector<std::string> modelNames;
        modelNames.reserve(fleet_.catalog_.size());
        for (const ServedModel& sm : fleet_.catalog_)
            modelNames.push_back(sm.model.name);
        ServingReport report = summarizeServing(
            fleet_.records_, static_cast<long>(trace_.size()), dispatches,
            paddedSlots_, delta, cachedMixes, modelNames);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const Shard& shard = shards_[s];
            ShardReport sr;
            sr.shardIdx = static_cast<int>(s);
            sr.mcmName = fleet_.templates_[s].name();
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
        report.preemptionEnabled = preemption_.enabled;
        report.llmEnabled = fleet_.llmEnabled_;
        if (fleet_.llmEnabled_) {
            report.llmDecodeRounds = llmDecodeRounds_;
            report.llmJoins = llmJoins_;
            report.llmMeanDecodeBatch =
                llmDecodeRounds_ > 0
                    ? static_cast<double>(llmBoardedSum_) /
                          static_cast<double>(llmDecodeRounds_)
                    : 0.0;
        }
        if (rec_) {
            obs::MetricsRegistry& metrics = rec_->metrics();
            metrics.gauge("horizon_sec").set(report.horizonSec);
            metrics.gauge("throughput_rps").set(report.throughputRps);
            metrics.gauge("slo_violation_rate")
                .set(report.sloViolationRate);
            metrics.gauge("batch_occupancy").set(report.batchOccupancy);
        }
        const long contested = fleet_.contestedRoutes_;
        report.contestedRoutes = contested;
        report.costOptimalRoutes = fleet_.costOptimalRoutes_;
        report.costOptimalRouteFrac =
            contested > 0 ? static_cast<double>(report.costOptimalRoutes) /
                                static_cast<double>(contested)
                          : 1.0;
        inform("fleet: ", report.completed, "/", report.offered,
               " requests over ", shards_.size(), " shard(s) (",
               routingPolicyName(options_.routing), ") in ",
               report.dispatches, " dispatches, ", delta.misses,
               " schedule solves (", cachedMixes, " mixes cached)");
        if (preemption_.enabled)
            inform("fleet: ", report.preemptions,
                   " boundary preemptions, ", report.preemptedRequests,
                   " preempted requests resumed");
        if (fleet_.llmEnabled_)
            inform("fleet: ", report.llmDecodeRounds, " decode rounds, ",
                   report.llmJoins, " continuous-batching joins");
        return report;
    }

  private:
    /** Which admission routine forms a routed dispatch. */
    enum class Form { Regular, Urgent, Decode };
    /** What dispatchReady did with a ready batch. */
    enum class Routed { Nothing, Parked, Deferred };
    /** The next instant of every event class nextEvent picks among. */
    struct EventTimes
    {
        double arrival = kInf;
        double boundary = kInf;
        int boundaryShard = -1;
        double pending = kInf;
        double timer = kInf;
        double urgency = kInf;
    };

    void beginRun()
    {
        for (std::size_t i = 1; i < trace_.size(); ++i)
            SCAR_REQUIRE(trace_[i - 1].arrivalSec <= trace_[i].arrivalSec,
                         "fleet: trace not sorted by arrival time");

        // Per-run accounting reset; the cache persists across runs.
        before_ = fleet_.cache_.stats();
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
        fleet_.contestedRoutes_ = 0;
        fleet_.costOptimalRoutes_ = 0;
        if (rec_) {
            rec_->trace().setThreadName(0, "fleet");
            std::vector<std::string> columns{"queue_depth", "busy_shards",
                                             "cache_hit_rate"};
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                rec_->trace().setThreadName(
                    static_cast<int>(s) + 1,
                    "shard " + std::to_string(s) + " (" +
                        fleet_.templates_[s].name() + ")");
                columns.push_back("shard" + std::to_string(s) + "_busy");
            }
            for (const ServedModel& sm : fleet_.catalog_)
                columns.push_back("queue_" + sm.model.name);
            rec_->samples().reset();
            rec_->samples().setColumns(std::move(columns));
        }
        fleet_.records_.clear();
        fleet_.records_.reserve(trace_.size());

        for (const Mcm& tpl : fleet_.templates_) {
            computes_.push_back([fleet = &fleet_, tpl = &tpl](
                                    const Scenario& mix) {
                ScarOptions so = fleet->options_.serving.scar;
                // Default the search onto the fleet's pool, but let an
                // explicit scar.pool or scar.threads setting win — the
                // ScarOptions contract (threads = 1 forces a serial
                // search) must keep working inside the serving
                // runtime.
                if (so.pool == nullptr && so.threads == 0)
                    so.pool = fleet->pool_;
                Scar scar(mix, *tpl, so);
                return scar.run();
            });
        }

        // The per-run reset above cleared lastKey (the routing class)
        // and the accounting the calendar keys snapshot, so re-derive
        // every index entry before the loop reads them.
        fleet_.rebuildCalendar();
    }

    /** Resumes suspended replays on idle shards. While an urgent request
     *  is queued the shard stays reserved for it (that is what it was
     *  preempted for — and serving a back-to-back urgent batch before
     *  resuming avoids a pointless resume/re-preempt cycle); the moment
     *  urgency clears, the preempted replay continues from its cursor,
     *  charged the modeled re-staging overhead. */
    bool resumeIdle(bool urgent)
    {
        if (urgent || fleet_.suspendedIdle_.empty())
            return false;
        // A copy: syncShard retracts each resumed shard.
        const std::vector<int> idle(fleet_.suspendedIdle_.begin(),
                                    fleet_.suspendedIdle_.end());
        for (const int si : idle) {
            Shard& shard = shards_[si];
            const double overheadSec = preemption_.resumeOverheadSec;
            const double startSec = nowSec_ + overheadSec;
            shard.resumeOverheadSec += overheadSec;
            if (rec_) {
                rec_->trace().instantVirtual(
                    si + 1, "resume", "preemption", nowSec_,
                    {obs::argNum("remaining_sec",
                                 shard.suspended.remainingSec)});
                if (overheadSec > 0.0)
                    rec_->trace().completeVirtual(
                        si + 1, "resume-overhead", "overhead", nowSec_,
                        overheadSec);
                rec_->metrics().counter("preemption.resumes").inc();
            }
            // Add back the remainder that suspension subtracted; the
            // replay continues from its saved cursor, never re-solved
            // (the SuspendedReplay pins the schedule).
            beginReplay(shard, startSec, shard.suspended.remainingSec,
                        std::move(shard.suspendedKey));
            shard.hasSuspended = false;
            shard.executor.resume(std::move(shard.suspended), startSec);
            shard.suspended = SuspendedReplay{};
            shard.suspendedKey.clear();
            fleet_.syncShard(static_cast<std::size_t>(si));
        }
        return true;
    }

    /** Books a replay (fresh or resumed) starting at startSec for
     *  replaySec: busy time, replay end, the trace's window start,
     *  and the routing class. */
    void beginReplay(Shard& sh, double startSec, double replaySec,
                     std::string key)
    {
        sh.busySec += replaySec;
        sh.busyUntilSec = startSec + replaySec;
        sh.traceWindowStartSec = startSec;
        sh.lastKey = std::move(key);
    }

    /** Starts parked dispatches whose schedule is usable now. The pending
     *  queue holds exactly the parked-idle shards keyed by ready instant,
     *  so the due set is its prefix; the serial loop visited shards in
     *  index order, so the due indices are sorted before starting them
     *  (start order fixes the trace event order and the switch-overhead
     *  charging instant). */
    bool startDue()
    {
        std::vector<int> dueIdx;
        for (const auto& [readySec, si] : fleet_.pendingQueue_) {
            if (readySec > nowSec_)
                break;
            dueIdx.push_back(si);
        }
        std::sort(dueIdx.begin(), dueIdx.end());
        const double switchSec = options_.serving.switchOverheadSec;
        for (const int si : dueIdx) {
            Shard& shard = shards_[si];
            // Wall-clock join: blocks only if the background solve is
            // still running; the virtual clock is unaffected. Cache
            // hits parked their schedule at lookup time.
            auto schedule = shard.pendingSchedule != nullptr
                                ? std::move(shard.pendingSchedule)
                                : fleet_.cache_.join(shard.pendingKey);
            double startSec = nowSec_;
            if (!shard.lastKey.empty() &&
                shard.lastKey != shard.pendingKey && switchSec > 0.0) {
                startSec += switchSec;
                shard.switchOverheadSec += switchSec;
                if (rec_)
                    rec_->trace().completeVirtual(
                        si + 1, "switch", "overhead", nowSec_, switchSec);
            }
            if (rec_) {
                for (const BatchGroup& group : shard.pending.groups)
                    for (const Request& req : group.requests)
                        rec_->trace().asyncInstantVirtual(
                            static_cast<std::uint64_t>(req.id),
                            "dispatch", "request", startSec);
            }
            // A decode round replays the cached one-step schedule
            // llmDecodeSteps times (the executor tiles it), so every
            // round of the same (context bucket, batch) shares one
            // cached solve.
            shard.executor.start(std::move(schedule),
                                 std::move(shard.pending), startSec);
            beginReplay(shard, startSec, shard.executor.makespanSec(),
                        std::move(shard.pendingKey));
            shard.hasPending = false;
            shard.pendingKey.clear();
            shard.pendingSchedule.reset();
            fleet_.syncShard(static_cast<std::size_t>(si));
        }
        return !dueIdx.empty();
    }

    /** Decode rounds: a free shard and decode-queue waiters form a
     *  single-model decode dispatch with no batching timer (generation
     *  cadence dominates; a waiting sequence is never better off idle).
     *  Runs before dispatchReady so decode streams keep their cadence
     *  against competing prefill batches. Waiters appear only at
     *  commitTick (prefill completion, round end or join cut), so the
     *  very next iteration sees them here — the event calendar needs no
     *  extra timer for decode work. */
    bool dispatchDecode()
    {
        if (!fleet_.llmEnabled_ || fleet_.freeShards_.empty() ||
            admission_.decodeQueuedCount() == 0)
            return false;
        for (std::size_t m = 0; m < fleet_.catalog_.size(); ++m) {
            const int model = static_cast<int>(m);
            const int waiters = admission_.decodeQueuedCount(model);
            if (waiters == 0)
                continue;
            // Continuous batching holds waiters for the running
            // stream's next step boundary (join cut) instead of
            // opening a rival round — unless a full batch is already
            // waiting, which earns its own stream.
            if (continuous_ && llmStreams_[m] > 0 &&
                waiters < fleet_.catalog_[m].model.batch)
                continue;
            const bool parked = routeFormPark(
                admission_.peekDecodeMix(model), Form::Decode,
                /*allowDefer=*/false, model);
            SCAR_ASSERT(parked, "fleet: decode round found no shard "
                                "with free shards available");
            return true;
        }
        return false;
    }

    /** Free shard + ready batch: route, then form and park a dispatch.
     *  Routing happens on the peeked mix *before* the queues are consumed
     *  so BestFit can defer: when an occupied shard's projected
     *  completion beats every idle candidate, the batch stays queued and
     *  is re-routed at the next event (typically when the preferred shard
     *  frees up). An urgent batch is dispatchable regardless of
     *  batch-fill / aging state. */
    Routed dispatchReady(bool urgent)
    {
        if (!(admission_.ready(nowSec_) || urgent) || !anyCandidate(urgent))
            return Routed::Nothing;
        const MixPeek peeked = peekNext(urgent);
        // Overflow check: padded dispatch batches cover every queued
        // request unless some queue exceeded its cap, in which case
        // requests stay behind and deferral would starve the fleet's
        // throughput. Never defer an urgent dispatch: it exists
        // because some request cannot afford to wait for a better
        // package.
        const bool allowDefer =
            !urgent && admission_.queuedCount() <= peeked.batchSlots;
        if (routeFormPark(peeked, urgent ? Form::Urgent : Form::Regular,
                          allowDefer))
            return Routed::Parked;
        if (rec_)
            rec_->metrics().counter("routing.deferrals").inc();
        return Routed::Deferred;
    }

    /** Routes the peeked mix, forms its dispatch, and parks it on the
     *  target until its schedule's virtual ready instant: looks the (mix,
     *  package) key up in the shard's cache (starting a background solve
     *  on a miss), records the projected replay end BestFit charges for
     *  the parked shard, and books the solve stall and the cache /
     *  dispatch metrics. Returns false, consuming nothing, when routing
     *  defers. */
    bool routeFormPark(const MixPeek& peeked, Form form, bool allowDefer,
                       int decodeModel = -1)
    {
        const bool urgent = form == Form::Urgent;
        RoutingProbes probes = fleet_.newProbes(peeked, admission_);
        const int target =
            fleet_.routeDispatch(probes, nowSec_, allowDefer, urgent);
        if (target < 0)
            return false;
        ++queueEpoch_;
        Dispatch dispatch =
            form == Form::Decode
                ? admission_.formDecodeDispatch(decodeModel)
                : (urgent ? admission_.formUrgentDispatch(
                                nowSec_, preemption_.slackThresholdSec)
                          : admission_.formDispatch(nowSec_));
        const std::string& sig = peeked.signature;
        SCAR_ASSERT(dispatch.mix.signature == sig,
                    "fleet: dispatch mix diverged from the routed peek");
        if (form == Form::Decode) {
            // Decode rounds do not add padded slots: occupancy stays a
            // prefill-batching metric, and each request would
            // otherwise be charged once per round. Decode batch fill
            // is reported as llmMeanDecodeBatch.
            ++llmStreams_[decodeModel];
            ++llmDecodeRounds_;
            llmBoardedSum_ += static_cast<long>(
                dispatch.groups.front().requests.size());
        } else {
            for (const BatchGroup& group : dispatch.groups)
                paddedSlots_ += group.batch;
        }

        const auto shardIdx = static_cast<std::size_t>(target);
        Shard& shard = shards_[shardIdx];
        const std::string key = fleet_.cacheKey(sig, shardIdx);
        // The Scenario is materialized only if the lookup launches a
        // solve or the makespan estimate is new.
        const auto mix = [&]() -> const Scenario& { return probes.mix(); };
        const AsyncLookup found = fleet_.cache_.lookup(
            key, mix, computes_[shardIdx], nowSec_,
            options_.serving.modeledSolveSec);
        double endSec = found.readySec;
        if (!shard.lastKey.empty() && shard.lastKey != key)
            endSec += options_.serving.switchOverheadSec;
        // A decode round replays its one-step makespan llmDecodeSteps
        // times (0 on other dispatches, where the factor 1 is exact).
        endSec += (found.schedule != nullptr
                       ? found.schedule->makespanSec
                       : fleet_.estimateMakespanKeyed(
                             key, shardIdx, dispatch.mix.numModels(),
                             mix)) *
                  std::max(1, dispatch.llmDecodeSteps);
        shard.hasPending = true;
        shard.pending = std::move(dispatch);
        shard.pendingKey = key;
        shard.pendingReadySec = found.readySec;
        shard.pendingEndSec = endSec;
        shard.pendingSchedule = found.schedule;
        fleet_.syncShard(shardIdx);
        shard.solveStallSec += std::max(0.0, found.readySec - nowSec_);
        if (!rec_)
            return true;
        static constexpr std::array<const char*, 3> kCounters{
            "dispatches.regular", "dispatches.urgent",
            "dispatches.decode"};
        // lookup() counts joining an in-flight solve as a hit; only a
        // lookup that launched the solve is a miss (matches
        // ScheduleCacheStats).
        const bool hit = !found.startedSolve;
        rec_->trace().instantVirtual(
            target + 1, hit ? "cache-hit" : "cache-miss", "cache",
            nowSec_, {obs::argText("mix", sig)});
        rec_->metrics().counter(hit ? "cache.hits" : "cache.misses").inc();
        rec_->metrics()
            .counter(kCounters[static_cast<std::size_t>(form)])
            .inc();
        if (found.readySec > nowSec_)
            rec_->trace().completeVirtual(
                target + 1, "solve-stall", "stall", nowSec_,
                found.readySec - nowSec_, {obs::argText("mix", sig)});
        return true;
    }

    /** Ready batch but every shard occupied: solves the would-be mix in
     *  the background so the search overlaps the replays. Only worthwhile
     *  when solves cost virtual time — with a free (modeledSolveSec = 0)
     *  solve there is no stall to hide, and speculating on transient peek
     *  mixes would just burn extra searches and distort the hit-rate
     *  counters. Under urgency the next dispatch out is the urgent mix,
     *  so that is the schedule worth warming. */
    void speculate(bool urgent)
    {
        if (!speculating_ || !(admission_.ready(nowSec_) || urgent) ||
            queueEpoch_ == lastSpeculativeEpoch_)
            return;
        lastSpeculativeEpoch_ = queueEpoch_;
        const MixPeek peeked = peekNext(urgent);
        RoutingProbes probes = fleet_.newProbes(peeked, admission_);
        const int target =
            fleet_.speculationTarget(probes, nowSec_, urgent);
        if (target < 0)
            return;
        const auto shardIdx = static_cast<std::size_t>(target);
        fleet_.cache_.prefetch(
            fleet_.cacheKey(peeked.signature, shardIdx),
            [&]() -> const Scenario& { return probes.mix(); },
            computes_[shardIdx],
            nowSec_ + options_.serving.modeledSolveSec);
        if (rec_) {
            rec_->trace().instantVirtual(
                target + 1, "speculative-solve", "cache", nowSec_,
                {obs::argText("mix", peeked.signature)});
            rec_->metrics().counter("solves.speculative").inc();
        }
    }

    /** Advances the virtual clock to the next event and commits it. The
     *  calendar's ordered sets hand over each next-event time in O(log
     *  N); the boundary head ties exactly like the old scan (strict <, so
     *  the lowest shard index wins equal times — set order is (time,
     *  idx)). Pending-ready, timer, and urgency events need no action
     *  beyond advancing the clock: the loop head fires next iteration. */
    void nextEvent(bool urgent, bool deferred)
    {
        EventTimes t;
        if (next_ < trace_.size())
            t.arrival = trace_[next_].arrivalSec;
        if (!fleet_.boundaryQueue_.empty())
            std::tie(t.boundary, t.boundaryShard) =
                *fleet_.boundaryQueue_.begin();
        if (!fleet_.pendingQueue_.empty())
            t.pending = fleet_.pendingQueue_.begin()->first;
        // The batching timer only matters while a shard can accept a
        // dispatch: busy shards dispatch as soon as they free up. A
        // deferred batch is already past its timer — its next chance
        // is a state change (boundary / solve-ready / arrival), and
        // re-arming the elapsed timer would spin the loop in place.
        if (!deferred && anyCandidate(false) &&
            admission_.queuedCount() > 0)
            t.timer = admission_.nextForcedDispatchSec();
        // Urgency timer: the instant the next queued request's slack
        // crosses the preemption threshold, an urgent dispatch can
        // claim an idle shard without waiting for batch fill or the
        // forced-dispatch timer. Only armed while a candidate exists
        // (with none, the urgent batch's next chance is a window
        // boundary — where the preemptor acts — so boundary events
        // already cover it) and while not already urgent
        // (dispatchReady either dispatched or, with no candidate,
        // boundaries drive progress; re-arming an elapsed instant
        // would spin).
        if (preemption_.enabled && !urgent &&
            admission_.queuedCount() > 0 && anyCandidate(true))
            t.urgency = urgencyCrossingSec();

        const double tNext = std::min(
            {t.arrival, t.boundary, t.pending, t.timer, t.urgency});
        SCAR_REQUIRE(tNext < kInf, "fleet: event loop stalled with ",
                     admission_.queuedCount(), " queued requests");
        advanceTo(std::max(nowSec_, tNext));

        if (t.arrival <= t.boundary && t.arrival <= t.pending &&
            t.arrival <= t.timer && t.arrival <= t.urgency) {
            commitArrival();
        } else if (t.boundary <= t.pending && t.boundary <= t.timer &&
                   t.boundary <= t.urgency) {
            const double bound = forwardBound(t, urgent, deferred);
            if (t.boundary < bound)
                fastForward(bound);
            else
                tickOnce(t.boundaryShard);
        }
    }

    /**
     * The fast-forward bound B. The handlers before nextEvent are
     * provably no-ops strictly before it — B is the min over every
     * next-possible-routing-decision term (docs/ARCHITECTURE.md
     * tabulates each with its proof sketch):
     *  - no suspension is parked (the gate below), so resumeIdle
     *    never fires;
     *  - no parked schedule comes due before t.pending >= B;
     *  - no shard frees before B (a dispatch-done tick lands at its
     *    final boundary >= B), so the candidate set is frozen and
     *    dispatchDecode / dispatchReady cannot dispatch before the
     *    timer or an arrival, both >= B;
     *  - speculate already ran on the current queue epoch, or the
     *    guard caps B at the forced-dispatch instant where ready()
     *    could newly turn true;
     *  - under preemption, B <= the next urgency crossing U: for
     *    every tick t < U the per-tick urgency predicate
     *    (t >= deadline - slack, the same FP expression as U) is
     *    false bit-for-bit, so preemptAt after each committed tick is
     *    a no-op — and the queued deadlines cannot change before B
     *    because B <= the next arrival;
     *  - on LLM fleets, B stops strictly before the earliest
     *    step-aligned boundary where a decode round with
     *    already-queued waiters could take a join cut, and before the
     *    earliest mid-replay autoregressive completion (it enqueues
     *    decode waiters, moving the decode queues / queue epoch) — so
     *    decode queues, llmStreams_, and the join-cut predicate stay
     *    frozen across every committed tick, and joinCut is a
     *    provable no-op.
     * So every window tick strictly before B commits without
     * re-entering the loop head. A deferred dispatch re-routes after
     * every tick, and a preemptive fleet with a parked suspension
     * (resumeIdle re-checks per tick) or an already-urgent queue (the
     * very next boundary suspends) stays on the single-tick path:
     * B = the head boundary.
     */
    double forwardBound(const EventTimes& t, bool urgent,
                        bool deferred) const
    {
        if (deferred || (preemption_.enabled &&
                         (!fleet_.suspended_.empty() || urgent)))
            return t.boundary;
        const auto& busyEnds = fleet_.busyEndQueue_;
        double bound = busyEnds.empty() ? kInf : busyEnds.begin()->first;
        bound = std::min({bound, t.pending, t.arrival, t.timer});
        if (speculating_ && admission_.queuedCount() > 0 &&
            queueEpoch_ != lastSpeculativeEpoch_)
            bound = std::min(bound, admission_.nextForcedDispatchSec());
        // Preemption-aware term: the next urgency crossing, on the
        // same FP expression as the urgency timer — unconditioned on
        // candidate availability, because a crossing is a routing
        // decision either way (with a candidate dispatchReady sends
        // the urgent batch; with none the next boundary tick suspends
        // a replay).
        if (preemption_.enabled && admission_.queuedCount() > 0)
            bound = std::min(bound, urgencyCrossingSec());
        if (!fleet_.llmEnabled_)
            return bound;
        // Join-aware LLM terms, per busy shard.
        for (const auto& [tb, si] : fleet_.boundaryQueue_) {
            (void)tb;
            const ReplayExecutor& executor = shards_[si].executor;
            const Dispatch& running = executor.dispatch();
            if (running.llmDecodeSteps > 0) {
                // Decode round: riders retire only at the round's
                // final boundary — the replay-end term already covers
                // that slot release — so the hazard is a join cut at
                // the next step-aligned boundary once waiters are
                // queued for the round's model.
                if (continuous_ &&
                    admission_.decodeQueuedCount(
                        running.groups.front().catalogIdx) > 0)
                    bound =
                        std::min(bound, executor.nextStepBoundarySec());
            } else {
                // Prefill/mixed replay: an autoregressive group
                // completing mid-replay enqueues decode waiters
                // (commitTick bumps the decode queue and the queue
                // epoch — a routing-decision source), so the bound
                // stops strictly before the earliest such completion.
                bound = std::min(
                    bound,
                    executor.earliestGroupEndSec([&](std::size_t m) {
                        return fleet_
                            .catalog_[running.groups[m].catalogIdx]
                            .llm.autoregressive;
                    }));
            }
        }
        return bound;
    }

    /** Crosses every tick before `bound` straight off the boundary queue
     *  in its (time, shard) order — the order the loop head picks them in
     *  — one shard's run at a time: the run ends at the first tick >= B
     *  or after the next other head. The sample block fires after each
     *  tick exactly like the loop head does (the serial loop fires a
     *  tick's due samples at the head of the following iteration, so
     *  the fast-forward replays the same interleaving). A tick before B
     *  moves only its shard's boundary key (it is never dispatch-done,
     *  and commitTick touches no indexed field), so the queue node is
     *  re-keyed in place of a syncShard. */
    void fastForward(double bound)
    {
        auto& boundaryQueue = fleet_.boundaryQueue_;
        while (!boundaryQueue.empty() &&
               boundaryQueue.begin()->first < bound) {
            auto node = boundaryQueue.extract(boundaryQueue.begin());
            const int si = node.value().second;
            const std::pair<double, int> other =
                boundaryQueue.empty()
                    ? std::make_pair(kInf,
                                     std::numeric_limits<int>::max())
                    : *boundaryQueue.begin();
            ReplayExecutor& executor = shards_[si].executor;
            double tTick = node.value().first;
            do {
                WindowTick tick = executor.advance();
                SCAR_ASSERT(!tick.dispatchDone,
                            "fast-forward crossed shard ", si,
                            "'s final boundary");
                advanceTo(tick.timeSec);
                commitTick(si, tick);
                fireSamples();
                tTick = executor.nextBoundarySec();
            } while (tTick < bound && std::make_pair(tTick, si) < other);
            node.value().first = tTick;
            fleet_.idx_[si].boundarySec = tTick;
            boundaryQueue.insert(std::move(node));
        }
    }

    /** The single-tick path: a pending deferral, a parked suspension
     *  or already-urgent queue, or a bound at the head boundary (e.g.
     *  a shard in its final window, a join cut, a mid-replay LLM
     *  release, an urgency crossing). */
    void tickOnce(int si)
    {
        WindowTick tick = shards_[si].executor.advance();
        commitTick(si, tick);
        preemptAt(si, tick);
        joinCut(si, tick);
        fleet_.syncShard(static_cast<std::size_t>(si));
    }

    /** Boundary preemption: an urgent request is waiting, no shard can
     *  take it, and this replay just reached a cut point with windows
     *  still ahead — suspend it here; the next iteration dispatches the
     *  urgent batch onto the freed shard. When the tick ended the
     *  dispatch the shard frees naturally (preempting at the last window
     *  is the degenerate no-op), and a shard already parking a suspended
     *  replay is never preempted again (depth 1). */
    void preemptAt(int si, const WindowTick& tick)
    {
        Shard& sh = shards_[si];
        if (tick.dispatchDone || sh.hasSuspended || !urgentQueued() ||
            anyCandidate(true))
            return;
        sh.suspended = sh.executor.suspend();
        sh.hasSuspended = true;
        sh.suspendedKey = sh.lastKey;
        // The remaining windows will be re-charged at resume.
        sh.busySec -= sh.suspended.remainingSec;
        ++sh.preemptions;
        if (!rec_)
            return;
        rec_->trace().instantVirtual(
            si + 1, "preempt", "preemption", tick.timeSec,
            {obs::argInt("next_window",
                         static_cast<long long>(sh.suspended.window)),
             obs::argNum("remaining_sec", sh.suspended.remainingSec)});
        // suspend() just marked every still-riding request preempted;
        // tag their lifecycle tracks.
        for (const BatchGroup& group : sh.suspended.dispatch.groups)
            for (const Request& req : group.requests)
                if (req.preempted)
                    rec_->trace().asyncInstantVirtual(
                        static_cast<std::uint64_t>(req.id), "preempted",
                        "request", tick.timeSec);
        rec_->metrics().counter("preemption.suspends").inc();
    }

    /** Continuous-batching join cut: waiters queued for the model
     *  decoding on this shard, and the replay just reached a step-aligned
     *  boundary with steps still ahead — cut the round here (suspend
     *  without the preemption mark), credit the riders with the steps
     *  already replayed, and send everyone back to the decode queue. The
     *  next iteration's dispatchDecode forms the merged round on the
     *  freed shard. Riders cannot finish mid-round (the round's step
     *  count never exceeds any rider's remaining tokens), so all of them
     *  re-queue. */
    void joinCut(int si, const WindowTick& tick)
    {
        Shard& sh = shards_[si];
        if (!fleet_.llmEnabled_ || tick.dispatchDone || sh.hasSuspended ||
            !sh.executor.busy() || !continuous_)
            return;
        const Dispatch& running = sh.executor.dispatch();
        const int model = running.llmDecodeSteps > 0
                              ? running.groups.front().catalogIdx
                              : -1;
        const int perStep = static_cast<int>(sh.executor.windowsPerStep());
        if (model < 0 || admission_.decodeQueuedCount(model) == 0 ||
            (tick.windowIdx + 1) % perStep != 0)
            return;
        const int stepsDone = (tick.windowIdx + 1) / perStep;
        SuspendedReplay cut = sh.executor.suspend(false);
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
                admission_.enqueueDecode(req);
                ++riders;
            }
        }
        ++queueEpoch_;
        if (rec_) {
            rec_->trace().instantVirtual(
                si + 1, "decode-join", "llm", tick.timeSec,
                {obs::argInt("riders", static_cast<long long>(riders)),
                 obs::argInt("steps_done",
                             static_cast<long long>(stepsDone))});
            rec_->metrics().counter("llm.joins").inc();
        }
    }

    /** One crossed window boundary: the replay span, the completed
     *  requests' records and lifecycle events. Shared verbatim by
     *  tickOnce and fastForward so both emit the exact same byte stream. */
    void commitTick(int si, WindowTick& tick)
    {
        Shard& sh = shards_[si];
        if (rec_)
            rec_->trace().completeVirtual(
                si + 1, "w" + std::to_string(tick.windowIdx), "replay",
                sh.traceWindowStartSec,
                tick.timeSec - sh.traceWindowStartSec,
                {obs::argInt("window", tick.windowIdx)});
        sh.traceWindowStartSec = tick.timeSec;
        const std::vector<ServedModel>& catalog = fleet_.catalog_;
        // Autoregressive transition. For an LLM request a "completion"
        // at a window boundary is the end of one prefill or one decode
        // round, not necessarily the end of the request: unfinished
        // sequences re-enter the decode queue, and tick.completed is
        // filtered down to the truly retiring requests before the
        // generic record loop below. Empty for non-LLM catalogs, so a
        // run without LLM entries takes the pre-LLM path bit-for-bit.
        if (fleet_.llmEnabled_ && !tick.completed.empty()) {
            // A decode round carries riders stamped by
            // formDecodeDispatch; at least one is unfinished (a fully
            // finished group retired at its previous round).
            const bool decodeRound = std::any_of(
                tick.completed.begin(), tick.completed.end(),
                [](const Request& r) { return r.ridingDecodeSteps > 0; });
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
            std::vector<Request> retiring;
            retiring.reserve(tick.completed.size());
            for (Request& req : tick.completed) {
                if (!catalog[req.modelIdx].llm.autoregressive) {
                    retiring.push_back(std::move(req));
                    continue;
                }
                if (!decodeRound) {
                    // Prefill completion = the first output token.
                    req.firstTokenSec = tick.timeSec;
                    req.generatedTokens = 1;
                    if (rec_)
                        rec_->trace().asyncInstantVirtual(
                            static_cast<std::uint64_t>(req.id),
                            "first-token", "request", tick.timeSec);
                }
                const bool finished =
                    req.generatedTokens >= req.outputTokens;
                // Static decode batches retire in lockstep: finished
                // members ride as padding until the whole batch is
                // done.
                if (finished &&
                    (!decodeRound || continuous_ || allFinished)) {
                    retiring.push_back(std::move(req));
                    continue;
                }
                req.completionSec = -1.0;
                admission_.enqueueDecode(req);
                ++queueEpoch_;
            }
            tick.completed = std::move(retiring);
        }
        for (Request& req : tick.completed) {
            fleet_.records_.push_back(req);
            if (!rec_)
                continue;
            const std::string& model = catalog[req.modelIdx].model.name;
            rec_->trace().asyncEndVirtual(
                static_cast<std::uint64_t>(req.id), "req " + model,
                "request", tick.timeSec,
                {obs::argNum("latency_sec", req.latencySec()),
                 obs::argNum("queue_sec", req.queueSec()),
                 obs::argNum("exec_sec", req.execSec()),
                 obs::argBool("slo_violated", req.sloViolated()),
                 obs::argBool("preempted", req.preempted)});
            obs::MetricsRegistry& metrics = rec_->metrics();
            metrics.counter("requests.completed").inc();
            if (req.sloViolated())
                metrics.counter("requests.slo_violations").inc();
            metrics.histogram("latency_sec").record(req.latencySec());
            metrics.histogram("queue_wait_sec").record(req.queueSec());
            metrics.histogram("exec_sec").record(req.execSec());
        }
    }

    /** Admits the next trace arrival (nextEvent's arrival event).
     *  Timestamps come from the request itself. */
    void commitArrival()
    {
        const Request& req = trace_[next_];
        admission_.enqueue(req);
        if (rec_) {
            const std::string& model =
                fleet_.catalog_[req.modelIdx].model.name;
            std::vector<obs::TraceArg> args{obs::argText("model", model)};
            if (req.deadlineSec < kInf)
                args.push_back(
                    obs::argNum("deadline_sec", req.deadlineSec));
            rec_->trace().asyncBeginVirtual(
                static_cast<std::uint64_t>(req.id), "req " + model,
                "request", req.arrivalSec, std::move(args));
            rec_->metrics().counter("requests.arrived").inc();
        }
        ++next_;
        ++queueEpoch_;
    }

    /** Fixed-interval sampling on the virtual clock. The fleet state is
     *  piecewise-constant between events (sample-and-hold), so the value
     *  at each scheduled instant is the value now; rows are stamped with
     *  the scheduled time, and the headline series double as ph = C
     *  counter tracks in the trace. Fired at the loop head and after each
     *  fast-forwarded tick. */
    void fireSamples()
    {
        while (rec_ && rec_->samples().due(nowSec_)) {
            const double atSec = rec_->samples().nextSampleSec();
            const double queueDepth = admission_.queuedCount();
            int busyShards = 0;
            for (const Shard& shard : shards_)
                busyShards += shard.executor.busy() ? 1 : 0;
            const long long cacheHits =
                rec_->metrics().counter("cache.hits").value();
            const long long cacheMisses =
                rec_->metrics().counter("cache.misses").value();
            const double hitRate =
                cacheHits + cacheMisses > 0
                    ? static_cast<double>(cacheHits) /
                          static_cast<double>(cacheHits + cacheMisses)
                    : 0.0;
            std::vector<double> row{
                queueDepth, static_cast<double>(busyShards), hitRate};
            for (const Shard& shard : shards_)
                row.push_back(shard.executor.busy() ? 1.0 : 0.0);
            for (std::size_t m = 0; m < fleet_.catalog_.size(); ++m)
                row.push_back(
                    admission_.queuedCount(static_cast<int>(m)));
            rec_->samples().push(row);
            rec_->trace().counterVirtual("queue_depth", atSec, queueDepth);
            rec_->trace().counterVirtual("busy_shards", atSec, busyShards);
            rec_->trace().counterVirtual("cache_hit_rate", atSec, hitRate);
        }
    }

    /** Debug-build run invariants (Release pays nothing): every trace
     *  request retires exactly once — compared as id multisets, so a
     *  trace reusing ids still balances — and every record is stamped
     *  arrival <= dispatch <= completion. */
    void auditRun() const
    {
#ifndef NDEBUG
        std::vector<std::int64_t> offered;
        std::vector<std::int64_t> retired;
        for (const Request& req : trace_)
            offered.push_back(req.id);
        for (const Request& req : fleet_.records_) {
            SCAR_ASSERT(req.arrivalSec <= req.dispatchSec &&
                            req.dispatchSec <= req.completionSec,
                        "fleet: request ", req.id,
                        " stamped out of order");
            retired.push_back(req.id);
        }
        std::sort(offered.begin(), offered.end());
        std::sort(retired.begin(), retired.end());
        SCAR_ASSERT(offered == retired, "fleet: ", trace_.size(),
                    " trace requests but ", fleet_.records_.size(),
                    " retirements, or one retired twice");
#endif
    }

    /** Moves the virtual clock, which never runs backwards. */
    void advanceTo(double tSec)
    {
#ifndef NDEBUG
        SCAR_ASSERT(tSec >= nowSec_, "fleet: virtual time moved back to ",
                    tSec, " from ", nowSec_);
#endif
        nowSec_ = tSec;
    }

    /** A candidate shard exists; mirrors routeDispatch's rule that a
     *  shard parking a suspended replay only counts for urgent
     *  dispatches. */
    bool anyCandidate(bool urgent) const
    {
        return !fleet_.freeShards_.empty() ||
               (urgent && !fleet_.suspendedIdle_.empty());
    }

    /** Preemption-eligibility: some queued request's slack has shrunk to
     *  the threshold. Gated on `enabled` first so a disabled run never
     *  evaluates the urgency predicates (bit-identical to the
     *  non-preemptive runtime). */
    bool urgentQueued() const
    {
        return preemption_.enabled &&
               admission_.urgentQueued(nowSec_,
                                       preemption_.slackThresholdSec);
    }

    /** The next urgency crossing: the same FP expression as the
     *  per-tick urgency predicate, which the fast-forward's urgency
     *  term relies on. */
    double urgencyCrossingSec() const
    {
        return admission_.earliestDeadlineSec() -
               preemption_.slackThresholdSec;
    }

    /** The mix the next dispatch would board. An urgent batch boards
     *  only the models holding an urgent request (shortest possible
     *  fast lane). */
    MixPeek peekNext(bool urgent) const
    {
        return urgent ? admission_.peekUrgentMix(
                            nowSec_, preemption_.slackThresholdSec)
                      : admission_.peekMix();
    }

    FleetSimulator& fleet_;
    std::vector<Shard>& shards_;
    const FleetOptions& options_;
    const std::vector<Request>& trace_;
    // Flight recorder: nullptr is the disabled state, and every hook
    // sits behind that check — a disabled run does no observability
    // work and stays byte-identical to an uninstrumented build. All
    // recorded events carry virtual timestamps and are emitted from
    // this single-threaded loop, so an enabled trace is deterministic
    // at any solver thread count.
    obs::FlightRecorder* const rec_;
    const PreemptionOptions& preemption_;
    const bool continuous_;  ///< LLM continuous batching
    const bool speculating_; ///< speculative solves hide a modeled cost
    AdmissionController admission_;
    /** One compute closure per shard: a schedule is only meaningful
     *  for the package it was searched on. */
    std::vector<ComputeFn> computes_;
    ScheduleCacheStats before_; ///< cache counters at run start
    std::size_t next_ = 0;      ///< next arrival to admit
    double nowSec_ = 0.0;
    // The speculative peek only changes when the queues do; skip the
    // peek (its signature build and cache probes) on the (frequent)
    // other events.
    long queueEpoch_ = 0;
    long lastSpeculativeEpoch_ = -1;
    long paddedSlots_ = 0;
    /** In-flight decode rounds (parked or replaying) per catalog
     *  model. Continuous batching dispatches a second concurrent
     *  round for a model only when a full batch of waiters exists;
     *  otherwise waiters join the running stream at its next step
     *  boundary. */
    std::vector<int> llmStreams_;
    long llmDecodeRounds_ = 0;
    long llmJoins_ = 0;
    long llmBoardedSum_ = 0; ///< riders across all decode rounds
};

ServingReport
FleetSimulator::run(const std::vector<Request>& trace)
{
    Loop loop(*this, trace);
    while (loop.step()) {
    }
    return loop.finishReport();
}

} // namespace runtime
} // namespace scar
