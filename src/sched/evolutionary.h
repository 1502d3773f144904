/**
 * @file
 * Evolutionary SEG search (paper Section V-D): for large MCMs (6x6)
 * the segmentation space outgrows brute-force recombination, so SCAR
 * evolves per-model split-point genomes.
 *
 * Genome: one sorted split-gap list per present model (<= N_i - 1
 * splits). Fitness: beam placement + full window evaluation, exactly
 * the SCHED pipeline. The EA runs the paper's one configuration:
 * population 10, 4 generations.
 *
 * Parallelism: genome creation (selection, crossover, mutation) stays
 * serial on one seeded stream — it is cheap and order-sensitive — but
 * fitness evaluation, the expensive placement step, fans out across
 * the worker pool. Tournament selection only reads the previous
 * generation, so deferring child evaluations to a per-generation
 * batch changes nothing; candidate lists merge in population index
 * order, keeping results bit-identical at any pool size.
 */

#ifndef SCAR_SCHED_EVOLUTIONARY_H
#define SCAR_SCHED_EVOLUTIONARY_H

#include <cstdint>

#include "sched/sched_engine.h"

namespace scar
{

/** Evolves window segmentations; placement remains the SCHED beam. */
class EvolutionaryWindowSearch
{
  public:
    EvolutionaryWindowSearch(const CostDb& db, OptTarget target,
                             WindowSearchOptions schedOpts);

    /** Per-model split lists (gap indices local to the window range). */
    using Genome = std::vector<std::vector<int>>;

    /**
     * The seeded individual of the initial population: each present
     * model's top Heuristic-1 segmentation under the default
     * SegmentationOptions, the models drawing in order from one Rng(1)
     * stream. The stream is fixed, not derived from the EA seed, so
     * the seed genome is a function of the window alone (and the
     * pinned EA results stay put). It reads no entry
     * chiplets, so Scar::run builds every window's seed genome in one
     * fan-out before its serial window walk.
     */
    Genome seedGenome(const WindowAssignment& wa,
                      const NodeAllocation& nodes) const;

    /**
     * Runs the EA for one window from its seed genome; same contract
     * as WindowScheduler::search (re-entrant, seed-deterministic,
     * optional shared path memo).
     * @param seeded seedGenome(wa, nodes)
     * @param seed the EA's stream (selection, crossover, mutation)
     */
    WindowScheduler::Result search(const WindowAssignment& wa,
                                   const NodeAllocation& nodes,
                                   const Genome& seeded,
                                   std::uint64_t seed,
                                   const std::vector<int>& entry = {},
                                   PathCache* sharedPaths = nullptr) const;

    /** The whole EA of one window: seed genome, then search. */
    WindowScheduler::Result
    search(const WindowAssignment& wa, const NodeAllocation& nodes,
           std::uint64_t seed, const std::vector<int>& entry = {},
           PathCache* sharedPaths = nullptr) const
    {
        return search(wa, nodes, seedGenome(wa, nodes), seed, entry,
                      sharedPaths);
    }

  private:
    Genome randomGenome(const std::vector<int>& present,
                        const WindowAssignment& wa,
                        const NodeAllocation& nodes, Rng& rng) const;
    void mutate(Genome& genome, const std::vector<int>& present,
                const WindowAssignment& wa, const NodeAllocation& nodes,
                Rng& rng) const;
    std::vector<Segmentation> decode(const Genome& genome,
                                     const std::vector<int>& present,
                                     const WindowAssignment& wa) const;

    const CostDb& db_;
    OptTarget target_;
    WindowScheduler scheduler_;
    ThreadPool* pool_;
    obs::SearchCounters* counters_; ///< from schedOpts; may be null
};

} // namespace scar

#endif // SCAR_SCHED_EVOLUTIONARY_H
