/**
 * @file
 * Internals of the Heuristic-1 ranking (sched/segmentation.h) that
 * the differential tests pin against a reference implementation.
 * Not part of the library API.
 */

#ifndef SCAR_SCHED_SEGMENTATION_DETAIL_H
#define SCAR_SCHED_SEGMENTATION_DETAIL_H

#include <vector>

#include "sched/segmentation.h"

namespace scar
{
namespace detail
{

/**
 * The quick scores of every enumerateSegmentations candidate, in its
 * order, exactly as rankSegmentations computes them (it reuses each
 * candidate's leading segments from the one before).
 */
std::vector<double> quickScores(const CostDb& db, int model,
                                const LayerRange& range, int maxSegs,
                                int capPerCount, OptTarget target,
                                Rng& rng);

/**
 * The lower bounds rankSegmentations skips exact scores by, of every
 * enumerateSegmentations candidate, in its order: each is at most
 * that candidate's quickScores entry.
 */
std::vector<double> quickBounds(const CostDb& db, int model,
                                const LayerRange& range, int maxSegs,
                                int capPerCount, OptTarget target,
                                Rng& rng);

} // namespace detail
} // namespace scar

#endif // SCAR_SCHED_SEGMENTATION_DETAIL_H
