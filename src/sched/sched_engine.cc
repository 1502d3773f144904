#include "sched/sched_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"
#include "sched/sched_tree.h"

namespace scar
{

namespace
{

/** DFS path candidates per model and package occupancy. */
constexpr int kMaxPathsPerModel = 96;
/** Partial placements surviving each beam step. */
constexpr int kBeamWidth = 12;
/** Segmentation combos a window search places. */
constexpr int kMaxCombos = 64;
/** Refined segmentations kept per model (beyond one per count). */
constexpr int kRefinedPerModel = 3;

/** Evaluator options for the cheap per-model beam scoring. */
EvaluatorOptions
soloOptions(const EvaluatorOptions& base)
{
    EvaluatorOptions opts = base;
    opts.contention = false;
    opts.dramRoofline = false;
    return opts;
}

} // namespace

WindowScheduler::WindowScheduler(const CostDb& db, OptTarget target,
                                 WindowSearchOptions opts)
    : db_(db), target_(target), opts_(opts),
      fullEval_(db, opts.eval), soloEval_(db, soloOptions(opts.eval))
{
}

std::vector<int>
WindowScheduler::presentModels(const WindowAssignment& wa)
{
    std::vector<int> present;
    for (std::size_t m = 0; m < wa.perModel.size(); ++m) {
        if (!wa.perModel[m].empty())
            present.push_back(static_cast<int>(m));
    }
    return present;
}

double
WindowScheduler::score(const WindowCost& cost) const
{
    const Metrics metrics{cyclesToSeconds(cost.latencyCycles),
                          njToJoules(cost.energyNj)};
    return metrics.value(target_);
}

double
WindowScheduler::partialScore(double maxLatency, double sumEnergy) const
{
    switch (target_) {
      case OptTarget::Latency: return maxLatency;
      case OptTarget::Energy:  return sumEnergy;
      case OptTarget::Edp:     return maxLatency * sumEnergy;
    }
    return maxLatency * sumEnergy;
}

void
WindowScheduler::countTerms(const SoloPricer& pricer) const
{
    obs::SearchCounters::bump(opts_.counters,
                              &obs::SearchCounters::soloHits,
                              pricer.hits());
    obs::SearchCounters::bump(opts_.counters,
                              &obs::SearchCounters::soloMisses,
                              pricer.fills());
}

std::vector<Segmentation>
WindowScheduler::refineSegmentations(
    int model, const std::vector<Segmentation>& pruned, int entry,
    PathCache& pathCache) const
{
    const Topology& topo = db_.mcm().topology();
    const std::vector<bool> noneBlocked(topo.numNodes(), false);

    // Candidate scoring is independent per candidate; fan out and
    // collect by index so the ranking below sees a fixed order.
    std::vector<double> bestScore(
        pruned.size(), std::numeric_limits<double>::infinity());
    std::vector<char> placeable(pruned.size(), 0);
    forEachIndex(opts_.pool, pruned.size(), [&](std::size_t i) {
        const int numSegs = pruned[i].numSegments();
        const auto paths = pathCache.get(
            topo, numSegs, noneBlocked, kMaxPathsPerModel);
        SoloPricer pricer(soloEval_, model, pruned[i].segments, entry);
        double best = std::numeric_limits<double>::infinity();
        for (const auto& path : *paths) {
            const SoloWindowCost cost = pricer.price(path);
            const Metrics metrics{cyclesToSeconds(cost.latencyCycles),
                                  njToJoules(cost.energyNj)};
            best = std::min(best, metrics.value(target_));
        }
        countTerms(pricer);
        bestScore[i] = best;
        placeable[i] = paths->empty() ? 0 : 1;
    });

    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t i = 0; i < pruned.size(); ++i) {
        if (placeable[i])
            scored.emplace_back(bestScore[i], i);
    }
    std::sort(scored.begin(), scored.end());

    // Keep the best candidate of every segment count first (the
    // placement step may not be able to realize the preferred count on
    // the chiplets left by other models), then fill by pure score.
    std::vector<Segmentation> top;
    std::set<int> countsSeen;
    std::vector<bool> taken(pruned.size(), false);
    for (const auto& [score, idx] : scored) {
        const int count = pruned[idx].numSegments();
        if (countsSeen.insert(count).second) {
            top.push_back(pruned[idx]);
            taken[idx] = true;
        }
    }
    for (const auto& [score, idx] : scored) {
        if (static_cast<int>(top.size()) >=
            std::max<int>(kRefinedPerModel,
                          static_cast<int>(countsSeen.size())))
            break;
        if (!taken[idx]) {
            top.push_back(pruned[idx]);
            taken[idx] = true;
        }
    }
    return top;
}

void
WindowScheduler::placeCombo(const std::vector<int>& present,
                            const std::vector<Segmentation>& segs,
                            const std::vector<int>& entry,
                            PathCache& pathCache,
                            std::vector<BoundedPlacement>& placed) const
{
    const Topology& topo = db_.mcm().topology();
    obs::SearchCounters::bump(opts_.counters,
                              &obs::SearchCounters::combosPlaced);
    auto entryOf = [&](int model) {
        return model < static_cast<int>(entry.size()) ? entry[model] : -1;
    };

    // Place in decreasing segment-count order: the most constrained
    // models claim connected paths first.
    std::vector<std::size_t> order(present.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return segs[a].numSegments() > segs[b].numSegments();
              });

    std::vector<BeamState> beam(1);
    beam.front().used.assign(topo.numNodes(), false);

    for (std::size_t oi = 0; oi < order.size(); ++oi) {
        const std::size_t mi = order[oi];
        const int model = present[mi];
        const Segmentation& seg = segs[mi];
        const int numSegs = seg.numSegments();

        // Score every (state, path) extension first and materialize
        // only the kBeamWidth survivors: a BeamState copy is several
        // vector allocations, and the pre-PR loop paid it for every
        // candidate just to discard all but the top few. Candidates
        // are generated in (state, path) order and ranked with the
        // same stable sort and score as the materialized states were,
        // so the surviving beam is identical.
        struct Extension
        {
            double maxLatency;
            double sumEnergy;
            int stateIdx;
            int pathIdx;
        };
        std::vector<std::shared_ptr<const PathCache::PathList>>
            statePaths(beam.size());
        std::vector<Extension> candidates;
        SoloPricer pricer(soloEval_, model, seg.segments, entryOf(model));
        for (std::size_t si = 0; si < beam.size(); ++si) {
            const BeamState& state = beam[si];
            statePaths[si] = pathCache.get(
                topo, numSegs, state.used, kMaxPathsPerModel);
            const auto& paths = *statePaths[si];
            for (std::size_t pi = 0; pi < paths.size(); ++pi) {
                const SoloWindowCost cost = pricer.price(paths[pi]);
                candidates.push_back(
                    {std::max(state.maxLatency, cost.latencyCycles),
                     state.sumEnergy + cost.energyNj,
                     static_cast<int>(si), static_cast<int>(pi)});
            }
        }
        countTerms(pricer);
        if (candidates.empty()) {
            debug("beam died placing model ", model, " with ", numSegs,
                  " segments");
            return;
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const Extension& a, const Extension& b) {
                             return partialScore(a.maxLatency,
                                                 a.sumEnergy) <
                                    partialScore(b.maxLatency,
                                                 b.sumEnergy);
                         });
        if (static_cast<int>(candidates.size()) > kBeamWidth)
            candidates.resize(kBeamWidth);

        std::vector<BeamState> next;
        next.reserve(candidates.size());
        for (const Extension& ext : candidates) {
            BeamState grown = beam[ext.stateIdx];
            const auto& path = (*statePaths[ext.stateIdx])[ext.pathIdx];
            for (int node : path)
                grown.used[node] = true;
            ModelPlacement mp;
            mp.modelIdx = model;
            mp.segments.reserve(numSegs);
            for (int k = 0; k < numSegs; ++k) {
                mp.segments.push_back(
                    PlacedSegment{seg.segments[k], path[k]});
            }
            grown.placed.push_back(std::move(mp));
            grown.maxLatency = ext.maxLatency;
            grown.sumEnergy = ext.sumEnergy;
            next.push_back(std::move(grown));
        }
        beam = std::move(next);
    }

    for (BeamState& state : beam) {
        BoundedPlacement out;
        out.placement.models = std::move(state.placed);
        out.placement.entryChiplet.assign(db_.scenario().numModels(), -1);
        for (int m : present)
            out.placement.entryChiplet[m] = entryOf(m);
        WindowCost partial;
        partial.latencyCycles = state.maxLatency;
        partial.energyNj = state.sumEnergy;
        out.bound = score(partial);
        placed.push_back(std::move(out));
    }
}

ScoredPlacement
WindowScheduler::evaluate(BoundedPlacement&& placed) const
{
    ScoredPlacement scored;
    scored.cost = fullEval_.evaluate(placed.placement);
    scored.score = score(scored.cost);
    // The bound every skip in select() rests on; checked on every
    // evaluation that runs.
    SCAR_ASSERT(placed.bound <= scored.score, "window score ",
                scored.score, " below its contention-free bound ",
                placed.bound);
    scored.placement = std::move(placed.placement);
    return scored;
}

void
keepTop(std::vector<ScoredPlacement>& top)
{
    std::stable_sort(top.begin(), top.end(),
                     [](const ScoredPlacement& a, const ScoredPlacement& b) {
                         return a.score < b.score;
                     });
    if (top.size() > kMaxTopCandidates)
        top.resize(kMaxTopCandidates);
}

WindowScheduler::Ranking
WindowScheduler::rank(const WindowAssignment& wa,
                      const NodeAllocation& nodes,
                      std::uint64_t seed) const
{
    const std::vector<int> present = presentModels(wa);
    SCAR_REQUIRE(!present.empty(), "window has no layers to schedule");
    Ranking ranking(present.size());
    forEachIndex(opts_.pool, present.size(), [&](std::size_t i) {
        ranking[i] = rankModel(wa, nodes, seed, present[i]);
    });
    return ranking;
}

std::vector<Segmentation>
WindowScheduler::rankModel(const WindowAssignment& wa,
                           const NodeAllocation& nodes,
                           std::uint64_t seed, int model) const
{
    SCAR_REQUIRE(nodes[model] >= 1, "model ", model,
                 " present but allocated no nodes");
    Rng segRng(mixSeed(seed, static_cast<std::uint64_t>(model)));
    return rankSegmentations(db_, model, wa.perModel[model], nodes[model],
                             target_, SegmentationOptions{}, segRng);
}

std::vector<WindowScheduler::BoundedPlacement>
WindowScheduler::place(const WindowAssignment& wa, const Ranking& ranking,
                       const std::vector<int>& entry,
                       PathCache* sharedPaths) const
{
    const std::vector<int> present = presentModels(wa);
    SCAR_REQUIRE(!present.empty(), "window has no layers to schedule");
    SCAR_REQUIRE(ranking.size() == present.size(),
                 "ranking does not match the window's present models");
    auto entryOf = [&](int model) {
        return model < static_cast<int>(entry.size()) ? entry[model] : -1;
    };

    // SEG refinement: re-score each model's Heuristic-1 survivors by
    // their best placement from its entry and keep the top-k. Models
    // are independent; the per-model passes fan out and collect by
    // model index.
    PathCache localPaths;
    localPaths.setCounters(opts_.counters);
    PathCache& pathCache =
        sharedPaths != nullptr ? *sharedPaths : localPaths;
    std::vector<std::vector<Segmentation>> segLists(present.size());
    forEachIndex(opts_.pool, present.size(), [&](std::size_t i) {
        const int m = present[i];
        segLists[i] = refineSegmentations(m, ranking[i], entryOf(m),
                                          pathCache);
        SCAR_ASSERT(!segLists[i].empty(),
                    "no segmentation candidates for model ", m);
    });

    // Combo enumeration ordered by total rank (best-first), capped.
    std::vector<std::vector<int>> combos;
    {
        // Breadth-first by rank sum: enumerate index vectors whose
        // component sum is s = 0, 1, 2, ... until the cap.
        int maxSum = 0;
        for (const auto& list : segLists)
            maxSum += static_cast<int>(list.size()) - 1;
        for (int s = 0;
             s <= maxSum &&
             static_cast<int>(combos.size()) < kMaxCombos;
             ++s) {
            std::vector<int> combo(segLists.size(), 0);
            // Recursive enumeration of fixed-sum index vectors.
            std::function<void(std::size_t, int)> rec =
                [&](std::size_t idx, int remaining) {
                    if (static_cast<int>(combos.size()) >=
                        kMaxCombos)
                        return;
                    if (idx + 1 == combo.size()) {
                        if (remaining <
                            static_cast<int>(segLists[idx].size())) {
                            combo[idx] = remaining;
                            combos.push_back(combo);
                        }
                        return;
                    }
                    const int limit = std::min(
                        remaining,
                        static_cast<int>(segLists[idx].size()) - 1);
                    for (int v = 0; v <= limit; ++v) {
                        combo[idx] = v;
                        rec(idx + 1, remaining - v);
                    }
                };
            rec(0, s);
        }
    }

    // Combo placements are independent; fan out across the pool and
    // merge in combo index order so the placement order (the ranking's
    // tie-break) is identical at any pool size.
    std::vector<std::vector<BoundedPlacement>> comboPlaced(combos.size());
    forEachIndex(opts_.pool, combos.size(), [&](std::size_t ci) {
        std::vector<Segmentation> segs;
        segs.reserve(combos[ci].size());
        for (std::size_t i = 0; i < combos[ci].size(); ++i)
            segs.push_back(segLists[i][combos[ci][i]]);
        placeCombo(present, segs, entry, pathCache, comboPlaced[ci]);
    });

    std::vector<BoundedPlacement> placed;
    for (std::vector<BoundedPlacement>& cp : comboPlaced) {
        placed.insert(placed.end(), std::make_move_iterator(cp.begin()),
                      std::make_move_iterator(cp.end()));
    }

    if (placed.empty()) {
        // Fallback: one segment per model is always placeable when the
        // package has a free chiplet per model (paths of length 1).
        debug("window search fell back to single-segment placement");
        std::vector<Segmentation> segs;
        for (int m : present) {
            Segmentation seg;
            seg.segments.push_back(wa.perModel[m]);
            segs.push_back(std::move(seg));
        }
        placeCombo(present, segs, entry, pathCache, placed);
    }
    return placed;
}

WindowScheduler::Result
WindowScheduler::select(std::vector<BoundedPlacement> placed) const
{
    // Evaluate best-first by (bound, placement index) in batches of a
    // fixed size, so the evaluations that run never depend on the
    // pool. A placement whose bound is strictly above the current
    // kMaxTopCandidates-th best score cannot enter the list: its score
    // is at least its bound, and that threshold only falls as more
    // placements are evaluated. The bounds ascend, so the first such
    // placement ends the walk.
    const std::size_t n = placed.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return placed[a].bound < placed[b].bound;
                     });
    std::vector<ScoredPlacement> scored(n);
    std::vector<char> evaluated(n, 0);
    std::vector<double> lowest; // the kMaxTopCandidates lowest so far
    double threshold = std::numeric_limits<double>::infinity();
    for (std::size_t begin = 0; begin < n;) {
        const std::size_t end = std::min(n, begin + kEvalBatch);
        std::size_t stop = begin;
        while (stop < end && !(placed[order[stop]].bound > threshold))
            ++stop;
        forEachIndex(opts_.pool, stop - begin, [&](std::size_t j) {
            const std::size_t i = order[begin + j];
            scored[i] = evaluate(std::move(placed[i]));
        });
        for (std::size_t j = begin; j < stop; ++j) {
            evaluated[order[j]] = 1;
            lowest.push_back(scored[order[j]].score);
        }
        if (stop < end)
            break;
        if (lowest.size() >= kMaxTopCandidates) {
            std::nth_element(lowest.begin(),
                             lowest.begin() + (kMaxTopCandidates - 1),
                             lowest.end());
            lowest.resize(kMaxTopCandidates);
            threshold = lowest.back();
        }
        begin = end;
    }

    // Kept placements in placement order, so keepTop()'s stable sort
    // ranks them by (score, placement index): the order evaluating
    // every placement would give.
    Result result;
    for (std::size_t i = 0; i < n; ++i) {
        if (evaluated[i])
            result.top.push_back(std::move(scored[i]));
    }
    keepTop(result.top);
    return result;
}

WindowScheduler::Result
WindowScheduler::placeSegmentations(
    const std::vector<int>& presentModels,
    const std::vector<Segmentation>& segs,
    const std::vector<int>& entry, PathCache* sharedPaths) const
{
    PathCache localPaths;
    localPaths.setCounters(opts_.counters);
    PathCache& paths = sharedPaths != nullptr ? *sharedPaths : localPaths;
    std::vector<BoundedPlacement> placed;
    placeCombo(presentModels, segs, entry, paths, placed);
    // Every placement is evaluated, with no bound skip: each EA
    // individual's fitness and the EA's merged candidate list read
    // its whole top list.
    Result result;
    result.top.reserve(placed.size());
    for (BoundedPlacement& p : placed)
        result.top.push_back(evaluate(std::move(p)));
    keepTop(result.top);
    return result;
}

} // namespace scar
