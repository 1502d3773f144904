/**
 * @file
 * Layer-cost database: the offline MAESTRO pass of Figure 4.
 *
 * For every (model, layer, dataflow class) of a scenario the database
 * caches the MaestroLite LayerCost, and provides the expectation
 * formulas used by the top-level engines:
 *
 *   E(Lat(l)) = sum_i (n_dfi / |C|) * Lat(l -> dfi)        (Eq. 1)
 *
 * where Lat(l -> df) = intra-chiplet cycles + the amortized DRAM
 * streaming time of the layer's weights (heavy LLM layers are
 * DRAM-resident, so packing decisions must see that cost).
 *
 * Cross-solve reuse: the per-model tables are pure functions of the
 * model's content and the chiplet specs, independent of which scenario
 * mix the model appears in. A process-wide cache keyed by that content
 * (see ModelCostTables below) lets a serving fleet that solves many
 * mixes over the same catalog build each model's tables exactly once
 * instead of once per schedule-cache miss.
 */

#ifndef SCAR_COST_COST_DB_H
#define SCAR_COST_COST_DB_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/mcm.h"
#include "cost/maestro_lite.h"
#include "obs/solve_profile.h"
#include "workload/scenario.h"

namespace scar
{

/** Cost-database construction options. */
struct CostDbOptions
{
    /**
     * Chiplet-level mini-batch b' (paper Section III-E): 0 derives it
     * per model from the L2 capacity (largest b' <= batch whose
     * activation working set fits half the L2, leaving room for
     * weight tiles); a positive value fixes b' for every model.
     */
    int fixedMiniBatch = 0;
};

/**
 * Per-model cost tables: everything CostDb derives for one model that
 * depends only on (layer dims/types, batch, per-dataflow chiplet
 * specs, L2 budget, mini-batch policy, energy constants) — NOT on the
 * scenario mix the model appears in. Immutable once built, shared via
 * shared_ptr across every CostDb whose content key matches.
 */
struct ModelCostTables
{
    /** Candidate chiplet-level mini-batches; index 0 is the
     *  capacity-derived b', index 1 (when distinct) streaming b'=1. */
    std::vector<int> miniBatches;

    // costs[candidate][layer][dataflowIndex]
    std::vector<std::vector<std::array<LayerCost, kNumDataflows>>> costs;

    /**
     * All-pairs running sums for one (candidate, dataflow): entry
     * (first, last) holds the sequential sum over layers
     * [first, last], laid out as a packed upper triangle.
     */
    struct RangeSums
    {
        std::vector<double> cycles;   ///< sum intraCycles() * bPrime
        std::vector<double> energyNj; ///< sum intraEnergyNj * bPrime
    };

    // rangeSums[candidate][dataflowIndex]
    std::vector<std::array<RangeSums, kNumDataflows>> rangeSums;

    std::vector<double> weightPrefix; ///< L+1 prefix of weightBytes()
    // Sparse table: level k holds the max activation footprint over
    // [i, i + 2^k - 1].
    std::vector<std::vector<double>> actMax;
};

/** Precomputed per-(layer, dataflow) costs for one scenario + MCM. */
class CostDb
{
  public:
    /**
     * Builds the database by evaluating every layer of the scenario on
     * each dataflow class present on (or representable for) the MCM,
     * at each model's chiplet-level mini-batch b'.
     */
    CostDb(const Scenario& scenario, const Mcm& mcm,
           MaestroLite model = MaestroLite{},
           CostDbOptions options = CostDbOptions{});

    /**
     * Candidate chiplet-level mini-batches b' for a model. The paper
     * leaves b' <= b free; the two useful extremes are streaming
     * (b' = 1, maximizing inter-chiplet pipelining overlap) and
     * capacity folding (largest b' whose activations fit L2,
     * maximizing intra-chiplet batch parallelism). The window
     * evaluator picks the better per model and placement.
     */
    const std::vector<int>& miniBatchCandidates(int model) const;

    /** The capacity-derived (largest) mini-batch for a model. */
    int miniBatch(int model) const;

    /** Cached cost of a layer at a specific mini-batch candidate. */
    const LayerCost& costAt(int model, int layer, Dataflow df,
                            int bPrime) const;

    /** Index of a cached mini-batch candidate (panics when absent). */
    int miniBatchIndex(int model, int bPrime) const;

    // ---- O(1) segment range queries ------------------------------
    //
    // The window evaluator scores thousands of candidate segments per
    // search, and every segment cost is a reduction over a contiguous
    // layer range. These queries return those reductions in O(1) from
    // tables precomputed at construction. Byte-identity contract
    // (docs/ARCHITECTURE.md): each value is bit-identical to the
    // sequential per-layer loop it replaces — the sum tables store
    // every left-anchored running sum in the original accumulation
    // order (never a prefix-sum difference, which rounds differently),
    // and max/weight-byte queries are exact because IEEE max never
    // rounds and layer byte counts are integers below 2^53.

    /**
     * Sum over layers [first, last] of intraCycles() * bPrime for the
     * mini-batch candidate at index `bIdx` (see miniBatchIndex).
     */
    double segmentCycles(int model, int bIdx, Dataflow df, int first,
                         int last) const;

    /** Sum over [first, last] of intraEnergyNj * bPrime, same terms. */
    double segmentEnergyNj(int model, int bIdx, Dataflow df, int first,
                           int last) const;

    /** Sum over [first, last] of the layers' weightBytes(). */
    double segmentWeightBytes(int model, int first, int last) const;

    /**
     * Max over [first, last] of the per-sample activation footprint
     * inputBytes() + outputBytes() (sparse-table range max).
     */
    double segmentMaxActBytes(int model, int first, int last) const;

    /** Cached cost of a layer on the given dataflow class. */
    const LayerCost& cost(int model, int layer, Dataflow df) const;

    /** Per-sample layer cycles incl. weight streaming, one dataflow. */
    double layerCycles(int model, int layer, Dataflow df) const;

    /** Per-sample layer energy (nJ) incl. weight DRAM, one dataflow. */
    double layerEnergyNj(int model, int layer, Dataflow df) const;

    /** Expected per-sample layer cycles over dataflow classes (Eq. 1). */
    double expectedLayerCycles(int model, int layer) const;

    /** Expected per-sample layer energy (nJ) over dataflow classes. */
    double expectedLayerEnergyNj(int model, int layer) const;

    /** The scenario this database was built for. */
    const Scenario& scenario() const { return scenario_; }

    /** The MCM this database was built for. */
    const Mcm& mcm() const { return mcm_; }

    // ---- cross-solve table reuse ---------------------------------

    /** Hits/misses against the process-wide model-table cache. */
    struct TableStats
    {
        std::int64_t hits = 0;   ///< models whose tables were reused
        std::int64_t misses = 0; ///< models built (and published)
    };

    /**
     * This database's construction outcome: of its models, how many
     * table sets came from the process-wide cache vs were built here.
     * Stable after construction; Scar::run copies it into a profiled
     * solve's SolveProfile.
     */
    const TableStats& tableStats() const { return tableStats_; }

    /**
     * Drops every cached table set, so the next construction builds
     * cold (test isolation, cold-build benchmarks; in-flight shared
     * pointers stay valid — the cache holds references, not storage).
     */
    static void clearTableCache();

    // ---- profiling hooks -----------------------------------------

    /**
     * Attaches (or detaches, with nullptr) live query counters: range
     * queries bump costDbRangeQueries, per-layer costings bump
     * costDbLayerQueries. The disabled state costs one predicted
     * branch per query. Attach/detach only while no solve is querying
     * the database (Scar::run does this for profiled solves).
     */
    void setCounters(obs::SearchCounters* counters)
    {
        counters_ = counters;
    }

    /** The attached query counters, or nullptr when unprofiled. */
    obs::SearchCounters* counters() const { return counters_; }

  private:
    const Scenario& scenario_;
    const Mcm& mcm_;
    obs::SearchCounters* counters_ = nullptr; ///< profiled solves only
    std::array<double, kNumDataflows> classWeight_{};
    double offchipBpc_;
    double dramLatencyCycles_;
    TableStats tableStats_; ///< this construction's reuse outcome

    std::size_t triIndex(int model, int first, int last) const;

    // One immutable table set per model, possibly shared with other
    // CostDb instances through the process-wide cache.
    std::vector<std::shared_ptr<const ModelCostTables>> tables_;
};

} // namespace scar

#endif // SCAR_COST_COST_DB_H
