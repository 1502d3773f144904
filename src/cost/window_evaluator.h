/**
 * @file
 * Window evaluator: the heterogeneous-MCM cost model of Section III-E.
 *
 * Input: a placement of each model's window layers as contiguous layer
 * segments on distinct chiplets. Output: window latency/energy.
 *
 * Latency composition per model m with segments sg_1..sg_n, batch b,
 * and the chiplet-level mini-batch b' derived by the CostDb:
 *
 *   Lat(SG_m) = sum_k Lat(sg_k | b') + (b/b' - 1) * max_k Lat(sg_k | b')
 *
 * where Lat(sg | b') = Lat_ip_com + sum_l Lat_comp(l) + Lat_op_com.
 * Communication placement: the first segment loads its input from
 * DRAM (or over the NoP from the model's entry chiplet when the model
 * continues from a previous window), consecutive segments hand off
 * over the NoP (consumer side), and the segment holding the model's
 * final layer writes back to DRAM; weights always stream from DRAM —
 * once per window when the segment's weights fit in L2 alongside its
 * activation working set, otherwise once per sample.
 *
 * The NoP contention term delta supports two fidelities
 * (EvaluatorOptions::fidelity, see cost/comm_model.h):
 *
 *  - CommFidelity::Static (default): count flows per routed link
 *    within the window and inflate each activation flow's
 *    transmission time by the maximum number of flows sharing any of
 *    its links (the paper's model);
 *  - CommFidelity::Phased: split the window's flows into phases
 *    (weight-load / activation-exchange / off-chip spill), accumulate
 *    per-phase per-link byte loads into a PhasedLinkTable, and
 *    inflate every flow — including DRAM-side weight and spill
 *    traffic — by the M/D/1 queueing factor of its route's bottleneck
 *    link at the window's contention-free latency, memoized per
 *    (src, dst, phase).
 *
 * A package-level DRAM roofline bounds the window latency from below
 * by total off-chip bytes / off-chip bandwidth.
 */

#ifndef SCAR_COST_WINDOW_EVALUATOR_H
#define SCAR_COST_WINDOW_EVALUATOR_H

#include <cstdint>
#include <vector>

#include "cost/comm_model.h"
#include "cost/cost_db.h"
#include "workload/model.h"

namespace scar
{

/** One contiguous run of a model's layers mapped to one chiplet. */
struct PlacedSegment
{
    LayerRange range;
    int chiplet = -1;
};

/** All of one model's segments within a window, in execution order. */
struct ModelPlacement
{
    int modelIdx = -1;
    std::vector<PlacedSegment> segments;
};

/** A complete window placement across models. */
struct WindowPlacement
{
    std::vector<ModelPlacement> models;

    /**
     * Where each model's live activation resides when the window
     * starts: entryChiplet[modelIdx] is a chiplet id, or -1 when the
     * input must come from DRAM (first window / fresh input). An empty
     * vector means all models load from DRAM. Mirrors the paper's
     * observation that chiplet-to-chiplet passing avoids off-chip
     * read/writes at segment boundaries.
     */
    std::vector<int> entryChiplet;
};

/** Cost of one placed segment. */
struct SegmentCost
{
    double firstSampleCycles = 0.0;  ///< incl. one-time weight load
    double steadySampleCycles = 0.0; ///< recurring per-sample cycles
    double energyNj = 0.0;           ///< total over the batch
    bool weightsResident = true;     ///< weights fit in L2 for the window
};

/** Cost of one model inside a window. */
struct ModelWindowCost
{
    double latencyCycles = 0.0;
    double energyNj = 0.0;
    std::vector<SegmentCost> segments;
};

/** Cost of a whole window. */
struct WindowCost
{
    double latencyCycles = 0.0;     ///< max over models, DRAM-roofline'd
    double energyNj = 0.0;          ///< sum over models
    double dramBytes = 0.0;         ///< total off-chip traffic
    double dramBoundCycles = 0.0;   ///< the roofline component
    int maxLinkSharers = 1;         ///< contention diagnostic
    /** Largest M/D/1 factor applied (1.0 unless fidelity is Phased). */
    double maxQueueFactor = 1.0;
    std::vector<ModelWindowCost> perModel;
};

/**
 * Cost of a contention-free single-model window, as returned by
 * SoloPricer::price. Both scalars are bit-identical to the
 * corresponding WindowCost fields of evaluate() on the same placement.
 */
struct SoloWindowCost
{
    double latencyCycles = 0.0;
    double energyNj = 0.0;
};

/** Evaluation knobs. */
struct EvaluatorOptions
{
    bool contention = true;   ///< model the NoP traffic-conflict delta
    bool dramRoofline = true; ///< apply the off-chip bandwidth bound
    /**
     * Contention fidelity (inert when contention is off). Static is
     * the paper's max-sharers count and keeps every golden
     * byte-identical by construction; Phased is the opt-in
     * time-phased queueing estimate (cost/comm_model.h).
     */
    CommFidelity fidelity = CommFidelity::Static;
};

/** Evaluates window placements on one (scenario, MCM) pair. */
class WindowEvaluator
{
  public:
    WindowEvaluator(const CostDb& db,
                    EvaluatorOptions options = EvaluatorOptions{});

    /**
     * Evaluates one window placement.
     * Requires: segment ranges valid; every chiplet hosts at most one
     * segment within the window (exclusive occupancy, Section IV-D).
     */
    WindowCost evaluate(const WindowPlacement& placement) const;

    /** The underlying per-transfer communication model. */
    const CommModel& comm() const { return comm_; }

    /** The cost database in use. */
    const CostDb& db() const { return db_; }

  private:
    friend class SoloPricer;

    struct Flow
    {
        int src = -1;
        int dst = -1;
        double bytes = 0.0;
        bool offchip = false;
        CommPhase phase = CommPhase::Activation;
    };

    void validate(const WindowPlacement& placement) const;

    /** Entry chiplet of a model, -1 when its input comes from DRAM. */
    int entryOf(const WindowPlacement& placement, int modelIdx) const;
    double segmentWeights(int modelIdx, const LayerRange& range) const;
    bool segmentResident(int modelIdx, const LayerRange& range,
                         int chiplet, int bPrime) const;

    /** Pipeline steps ceil(b / b') of mini-batch candidate `bIdx`. */
    int miniBatchSteps(int modelIdx, int bIdx) const;

    /**
     * Prices one segment at mini-batch candidate `bIdx`: the
     * per-segment body of the Section III-E formula, inflating every
     * transfer's bytes by the contention factor
     * `factor(src, dst, phase)`. The static factor returns 1 for
     * non-activation phases, so DRAM-side sites multiply by 1 —
     * bit-identical to the pre-phase code that applied no factor
     * there. The factor is a templated callable, so the inner loop
     * carries no std::function allocation or indirect call.
     * evalModel() (behind evaluate()) and SoloPricer both price
     * segments through this one function, so the pricer's
     * bit-exactness contract rests on a single expression.
     * @param head true for the model's first segment in the window
     * @param src where the input comes from: the previous segment's
     *        chiplet, or for the head segment the model's entry
     *        chiplet (-1 = DRAM)
     * @param writesBack true when the model's final layer completes
     *        on this segment (its output is written to DRAM)
     */
    template <typename Factor>
    SegmentCost segmentCost(int modelIdx, int bIdx,
                            const LayerRange& range, bool head, int src,
                            int chiplet, bool writesBack,
                            Factor&& factor) const;

    /**
     * Prices one model's placement at mini-batch candidate `bIdx`:
     * segmentCost() per segment, folded by the pipelining formula.
     */
    template <typename Factor>
    ModelWindowCost evalModel(const WindowPlacement& placement,
                              const ModelPlacement& mp, int bIdx,
                              Factor&& factor) const;

    const CostDb& db_;
    CommModel comm_;
    EvaluatorOptions options_;
};

/**
 * Prices contention-free placements of one model's fixed
 * segmentation: the beam search's per-path score (Section IV-D). One
 * pricer serves one (model, segmentation, entry) triple and is local
 * to the task that uses it, so pricing takes no lock and hashes
 * nothing.
 *
 * A segment's cost depends only on (segment k, its chiplet, where its
 * input comes from, mini-batch candidate). For k = 0 the input source
 * is the fixed entry; for k > 0 it is the previous chiplet of the
 * path, reached over a NoP edge. The pricer therefore keeps a lazily
 * filled term table with one slot per chiplet for k = 0 and one slot
 * per directed NoP link for k > 0, addressed by the topology's dense
 * link id (ids are numbered in adjacency-list order, i.e. CSR offsets
 * over Topology::neighbors). The table holds (N + (K-1)·L)·B terms
 * for N chiplets, L directed links and B mini-batch candidates, never
 * N², so broadcast and express packages with large degrees stay
 * cheap.
 */
class SoloPricer
{
  public:
    /**
     * Checks the segmentation once and sizes the term table.
     * Requires: the evaluator's options disable contention and the
     * DRAM roofline (the solo configuration price() reproduces); a
     * valid model index; `segments` non-empty, contiguous and inside
     * the model; `entry` a chiplet id, or -1 for DRAM input.
     */
    SoloPricer(const WindowEvaluator& eval, int modelIdx,
               std::vector<LayerRange> segments, int entry);

    /**
     * Contention-free cost of the model with segment k placed on
     * path[k]. Folds the table terms left to right per mini-batch
     * candidate with the same floating-point expressions and order
     * as evaluate(), keeping the first strict-< latency winner, so
     * both scalars bit-equal evaluate() of the same one-model
     * placement (pinned in tests/test_cost.cc).
     * Requires: path.size() equals the segment count; every id is a
     * chiplet; no chiplet repeats; every step follows a NoP edge.
     */
    SoloWindowCost price(const std::vector<int>& path);

    /** Term lookups served by the table so far. */
    std::int64_t hits() const { return hits_; }

    /** Terms computed and stored so far. */
    std::int64_t fills() const { return fills_; }

  private:
    struct Term
    {
        double firstSampleCycles = -1.0; ///< < 0 marks an empty slot
        double steadySampleCycles = 0.0;
        double energyNj = 0.0;
    };

    const WindowEvaluator& eval_;
    int modelIdx_;
    int entry_;
    std::vector<LayerRange> segments_;
    bool modelEnds_;          ///< the last segment holds the final layer
    std::vector<int> steps_;  ///< pipeline steps per mini-batch candidate
    std::vector<Term> terms_; ///< slot * B + bIdx
    std::vector<int> slots_;  ///< scratch: per-segment slot of a path
    std::int64_t hits_ = 0;
    std::int64_t fills_ = 0;
};

} // namespace scar

#endif // SCAR_COST_WINDOW_EVALUATOR_H
