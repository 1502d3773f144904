/**
 * @file
 * SCHED engine (paper Section IV-D): maps layer segments onto physical
 * chiplets within one time window.
 *
 * The scheduling space is a forest of scheduling trees over the NoP
 * adjacency: a tree fixes a root chiplet per model, and a model's
 * candidate schedule is a simple path of length = its segment count
 * through unoccupied chiplets (constrained DFS). Later models are
 * constrained by earlier models' visited nodes.
 *
 * Search organization, in two halves — rank() is placement-free,
 * search() starts from its ranking:
 *  1. rank(): each model's Heuristic-1 quick ranking; search() then
 *     re-scores the survivors by their best single-model placement
 *     from the model's entry chiplet and keeps the top-k;
 *  2. Heuristic-1 recombination — the cross product of each model's
 *     top-k segmentations forms the combo list;
 *  3. for each combo, models place in decreasing node-count order via
 *     beam search: path candidates from every free root are scored
 *     with a contention-free single-model cost (a SoloPricer per
 *     model step, cost/window_evaluator.h), and the best beam-width
 *     partial placements survive;
 *  4. complete placements are re-scored with the full window evaluator
 *     (contention + DRAM roofline) and ranked, best-first by their
 *     beam score: contention only inflates transfers and the roofline
 *     only raises latency, so a placement's full score is never below
 *     score() of its beam's (max solo latency, summed solo energy),
 *     and placements whose bound is strictly above the current
 *     kMaxTopCandidates-th best full score are never evaluated. The
 *     ranked list is the one evaluating every placement would give.
 *
 * Parallelism and determinism: rank() and search() are re-entrant.
 * Randomness comes from a seed value, not a shared generator — each
 * model's Heuristic-1 ranking draws from its own mixSeed(seed, model)
 * stream, and the ranking reads no entry chiplets, so Scar::run ranks
 * every window of a solve in one fan-out before its serial window
 * walk. The per-model refinement, the refinement's candidate scoring,
 * the combo loop and each fixed-size batch of full evaluations fan out
 * across the optional worker pool; results are collected by model,
 * candidate, combo and placement index and ranked with stable sorts,
 * so the returned Result — and the number of full evaluations — is
 * bit-identical at any pool size (including fully serial).
 *
 * The enumeration caps are fixed constants of the search (the paper's
 * single configuration); exceeding a cap logs at debug level rather
 * than failing silently.
 */

#ifndef SCAR_SCHED_SCHED_ENGINE_H
#define SCAR_SCHED_SCHED_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/window_evaluator.h"
#include "eval/metrics.h"
#include "sched/provisioner.h"
#include "sched/sched_tree.h"
#include "sched/segmentation.h"
#include "sched/time_window.h"

namespace scar
{

/**
 * Ranked placements a window search keeps for the scenario's Pareto
 * cloud; Scar::run trims its merged per-window list to the same size.
 */
constexpr std::size_t kMaxTopCandidates = 32;

/** Per-window search settings. */
struct WindowSearchOptions
{
    EvaluatorOptions eval; ///< final-evaluation options
    /**
     * Worker pool for the combo/refinement fan-out; nullptr runs the
     * search serially. Results are identical either way.
     */
    ThreadPool* pool = nullptr;
    /**
     * Live profiling counters (cache hits, fan-out sizes); nullptr —
     * the default — records nothing and costs one predicted branch
     * per site. Counters never influence search results.
     */
    obs::SearchCounters* counters = nullptr;
};

/** A fully evaluated window placement. */
struct ScoredPlacement
{
    WindowPlacement placement;
    WindowCost cost;
    double score = 0.0;
};

/**
 * Stable-sorts `top` by score and keeps the best kMaxTopCandidates:
 * the one ranking every top list goes through (a window search's, the
 * EA's merged list and Scar::run's per-window merge). Ties keep their
 * input order.
 */
void keepTop(std::vector<ScoredPlacement>& top);

/** Searches the scheduling space of one time window. */
class WindowScheduler
{
  public:
    /** Search outcome: a ranked candidate list, best first. */
    struct Result
    {
        std::vector<ScoredPlacement> top; ///< ascending score

        bool found() const { return !top.empty(); }
        const ScoredPlacement& best() const { return top.front(); }
    };

    /**
     * A complete beam placement before full evaluation, with its
     * bound: score() of the beam's (max solo latency, summed solo
     * energy), never above score() of its full evaluation.
     */
    struct BoundedPlacement
    {
        WindowPlacement placement;
        double bound = 0.0;
    };

    WindowScheduler(const CostDb& db, OptTarget target,
                    WindowSearchOptions opts = WindowSearchOptions{});

    /**
     * Heuristic-1 rankings of one (window, allocation), one list per
     * present model in present-model order: the entry-free half of
     * SEG, which Scar::run computes for every window of a solve
     * before it walks the windows.
     */
    using Ranking = std::vector<std::vector<Segmentation>>;

    /**
     * Ranks every present model of a window, fanning out across the
     * pool. Re-entrant and seed-deterministic: each model draws from
     * its own mixSeed(seed, model) stream (see rankModel).
     * @param wa layers per model in this window
     * @param nodes PROV allocation (max segments per model)
     * @param seed randomness for capped enumerations
     */
    Ranking rank(const WindowAssignment& wa, const NodeAllocation& nodes,
                 std::uint64_t seed) const;

    /**
     * The ranking of one present model, drawn from its
     * mixSeed(seed, model) stream, so one model's capped-enumeration
     * sampling never shifts another's: rank() is this for every
     * present model, and Scar::run runs it as one job per (window,
     * allocation, model).
     */
    std::vector<Segmentation> rankModel(const WindowAssignment& wa,
                                        const NodeAllocation& nodes,
                                        std::uint64_t seed,
                                        int model) const;

    /**
     * Runs the placement half of the window search from a ranking:
     * the placement-aware refinement, the combo recombination and the
     * beam placements. Re-entrant: safe to call concurrently on the
     * same instance.
     * @param wa layers per model in this window
     * @param ranking rank(wa, nodes, seed) for the window's allocation
     * @param entry per-model entry chiplets (-1/empty = DRAM input);
     *        models continuing from a previous window receive their
     *        live data over the NoP from these chiplets
     * @param sharedPaths optional path-enumeration memo reused across
     *        searches (Scar::run shares one per solve); nullptr uses
     *        a private cache
     */
    Result search(const WindowAssignment& wa, const Ranking& ranking,
                  const std::vector<int>& entry = {},
                  PathCache* sharedPaths = nullptr) const
    {
        return select(place(wa, ranking, entry, sharedPaths));
    }

    /**
     * The placement half of search() (same arguments): every combo's
     * final beam in combo order, beam order within a combo, or the
     * single-segment fallback's when no combo places. search() fully
     * evaluates only those of them that can enter its top list.
     */
    std::vector<BoundedPlacement>
    place(const WindowAssignment& wa, const Ranking& ranking,
          const std::vector<int>& entry = {},
          PathCache* sharedPaths = nullptr) const;

    /** The whole SEG+SCHED search of one window: rank, then search. */
    Result
    search(const WindowAssignment& wa, const NodeAllocation& nodes,
           std::uint64_t seed, const std::vector<int>& entry = {},
           PathCache* sharedPaths = nullptr) const
    {
        return search(wa, rank(wa, nodes, seed), entry, sharedPaths);
    }

    /**
     * Evaluates a fixed per-model segmentation choice (used by the
     * evolutionary driver): beam placement + full evaluation.
     * @param segs per-present-model segmentations, aligned with the
     *        present-model order of the window assignment
     * @param sharedPaths optional path-enumeration memo reused across
     *        calls (the EA shares one per window search); nullptr
     *        uses a private cache
     */
    Result placeSegmentations(const std::vector<int>& presentModels,
                              const std::vector<Segmentation>& segs,
                              const std::vector<int>& entry = {},
                              PathCache* sharedPaths = nullptr) const;

    /** Window-level score of a cost under the chosen target. */
    double score(const WindowCost& cost) const;

    /** Present (non-empty) model indices of a window assignment. */
    static std::vector<int> presentModels(const WindowAssignment& wa);

  private:
    /** Full evaluations per parallel batch of select(). */
    static constexpr std::size_t kEvalBatch = 16;

    struct BeamState
    {
        std::vector<bool> used;
        std::vector<ModelPlacement> placed;
        double maxLatency = 0.0;
        double sumEnergy = 0.0;
    };

    /** Adds a pricer's term-table hits and fills to the counters. */
    void countTerms(const SoloPricer& pricer) const;

    double partialScore(double maxLatency, double sumEnergy) const;

    /** Appends one combo's final beam to `placed`. */
    void placeCombo(const std::vector<int>& present,
                    const std::vector<Segmentation>& segs,
                    const std::vector<int>& entry, PathCache& paths,
                    std::vector<BoundedPlacement>& placed) const;

    /** Fully evaluates a placement, checking it against its bound. */
    ScoredPlacement evaluate(BoundedPlacement&& placed) const;

    /**
     * Ranks placements by full score, evaluating best-first by bound
     * and skipping every placement that cannot enter the top list.
     */
    Result select(std::vector<BoundedPlacement> placed) const;

    /**
     * Placement-aware refinement of Heuristic 1: re-scores pruned
     * segmentation candidates by their best single-model placement on
     * the empty package and keeps the top-k. Candidate scoring fans
     * out across the pool, one SoloPricer per candidate.
     */
    std::vector<Segmentation> refineSegmentations(
        int model, const std::vector<Segmentation>& pruned, int entry,
        PathCache& paths) const;

    const CostDb& db_;
    OptTarget target_;
    WindowSearchOptions opts_;
    WindowEvaluator fullEval_;
    WindowEvaluator soloEval_;
};

} // namespace scar

#endif // SCAR_SCHED_SCHED_ENGINE_H
