/**
 * @file
 * SEG engine (paper Section IV-C): partitions a model's window layers
 * into contiguous segments mappable to chiplet nodes.
 *
 * A candidate is a sequence of split points over the topologically
 * sorted layers; at most N_i segments are allowed for a model holding
 * N_i nodes. Heuristic 1 evaluates candidates per model independently
 * with a placement-free pipeline score and keeps the top-k, reducing
 * the product space to a sum (the engine recombines top-k lists).
 */

#ifndef SCAR_SCHED_SEGMENTATION_H
#define SCAR_SCHED_SEGMENTATION_H

#include <vector>

#include "common/rng.h"
#include "cost/cost_db.h"
#include "eval/metrics.h"
#include "workload/model.h"

namespace scar
{

/** One segmentation candidate: contiguous ranges covering the window. */
struct Segmentation
{
    std::vector<LayerRange> segments;

    int numSegments() const { return static_cast<int>(segments.size()); }
};

/**
 * Heuristic-1 ranking knobs. The solver always ranks under the
 * defaults; the fields exist for the ranking's own tests.
 */
struct SegmentationOptions
{
    int pruneK = 16;           ///< quick-stage survivors before the
                               ///< placement-aware refinement
    int enumCapPerCount = 512; ///< cap on enumerated splits per count
};

/**
 * Enumerates segmentations of `range` into 1..maxSegs contiguous
 * parts. When the combination count for a segment count exceeds
 * `capPerCount`, a deterministic balanced candidate plus random
 * samples are used instead (the cap is logged at debug level).
 * rankSegmentations streams exactly these candidates, in this order
 * and with the same draws from `rng`, without materializing them.
 */
std::vector<Segmentation> enumerateSegmentations(const LayerRange& range,
                                                 int maxSegs,
                                                 int capPerCount,
                                                 Rng& rng);

/**
 * Heuristic-1 quick ranking: scores each candidate with a
 * placement-free pipeline model (expected layer cycles, 1-hop NoP
 * handoffs) and returns the survivors, best first: the best
 * candidate of every segment count, topped up with the next best
 * candidates to pruneK in total. There are more than pruneK
 * survivors when there are more segment counts than pruneK — every
 * count's best is always retained so the placement-aware refinement
 * in the SCHED engine can still choose a different degree of
 * pipelining.
 *
 * The candidates are ranked as they are enumerated and only the
 * survivors become Segmentations; the result is identical to scoring
 * the enumerateSegmentations list and sorting it. Each candidate is
 * first priced by an O(segments) lower bound on its score; the exact
 * O(layers) score runs only when that bound is below the pruneK-th
 * best kept so far (or fewer are kept) or below the best of the
 * candidate's segment count, since otherwise the candidate cannot
 * survive. Every exact score checks that its bound did not exceed
 * it. A profiled solve (counters attached to `db`) counts the
 * visited candidates in SearchCounters::segCandidates and the
 * exactly scored ones in SearchCounters::segScored.
 */
std::vector<Segmentation> rankSegmentations(const CostDb& db, int model,
                                            const LayerRange& range,
                                            int maxSegs, OptTarget target,
                                            const SegmentationOptions& opts,
                                            Rng& rng);

/**
 * The placement-free score the ranking uses, of one segmentation
 * (exposed for tests). Lower is better.
 */
double quickScore(const CostDb& db, int model, const Segmentation& seg,
                  OptTarget target);

} // namespace scar

#endif // SCAR_SCHED_SEGMENTATION_H
