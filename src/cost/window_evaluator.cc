#include "cost/window_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.h"
#include "obs/solve_profile.h"

namespace scar
{

WindowEvaluator::WindowEvaluator(const CostDb& db, EvaluatorOptions options)
    : db_(db), comm_(db.mcm()), options_(options)
{
}

namespace
{

/**
 * Checks one segment of a model's placement: non-empty, starting
 * right after `prevLast` (contiguity), and inside the model.
 */
void
requireSegmentRange(const Model& model, const LayerRange& range,
                    int prevLast)
{
    SCAR_REQUIRE(!range.empty(), "empty segment for model ", model.name);
    SCAR_REQUIRE(range.first == prevLast + 1,
                 "segments must be contiguous for model ", model.name,
                 " (got first=", range.first, " after last=", prevLast,
                 ")");
    SCAR_REQUIRE(range.first >= 0 && range.last < model.numLayers(),
                 "segment exceeds model ", model.name);
}

} // namespace

void
WindowEvaluator::validate(const WindowPlacement& placement) const
{
    const Scenario& sc = db_.scenario();
    std::vector<int> occupancy(db_.mcm().numChiplets(), 0);
    for (const ModelPlacement& mp : placement.models) {
        SCAR_REQUIRE(mp.modelIdx >= 0 && mp.modelIdx < sc.numModels(),
                     "bad model index ", mp.modelIdx);
        const Model& model = sc.models[mp.modelIdx];
        SCAR_REQUIRE(!mp.segments.empty(), "model ", model.name,
                     " placed with no segments");
        int prevLast = mp.segments.front().range.first - 1;
        for (const PlacedSegment& seg : mp.segments) {
            requireSegmentRange(model, seg.range, prevLast);
            SCAR_REQUIRE(seg.chiplet >= 0 &&
                             seg.chiplet < db_.mcm().numChiplets(),
                         "bad chiplet id ", seg.chiplet);
            SCAR_REQUIRE(occupancy[seg.chiplet] == 0,
                         "chiplet ", seg.chiplet,
                         " hosts more than one segment in this window");
            occupancy[seg.chiplet] = 1;
            prevLast = seg.range.last;
        }
    }
}

int
WindowEvaluator::entryOf(const WindowPlacement& placement,
                         int modelIdx) const
{
    if (modelIdx < static_cast<int>(placement.entryChiplet.size()))
        return placement.entryChiplet[modelIdx];
    return -1;
}

double
WindowEvaluator::segmentWeights(int modelIdx,
                                const LayerRange& range) const
{
    // Segment reductions are O(1) range queries against the CostDb
    // tables (see cost_db.h: values are bit-identical to the
    // per-layer loops they replaced).
    return db_.segmentWeightBytes(modelIdx, range.first, range.last);
}

bool
WindowEvaluator::segmentResident(int modelIdx, const LayerRange& range,
                                 int chiplet, int bPrime) const
{
    const double weights = segmentWeights(modelIdx, range);
    const double maxAct =
        db_.segmentMaxActBytes(modelIdx, range.first, range.last) *
        bPrime;
    const double l2 = db_.mcm().chiplet(chiplet).spec.l2Bytes;
    return weights + maxAct <= l2;
}

int
WindowEvaluator::miniBatchSteps(int modelIdx, int bIdx) const
{
    const int bPrime = db_.miniBatchCandidates(modelIdx)[bIdx];
    const int b = db_.scenario().models[modelIdx].batch;
    return static_cast<int>(std::ceil(static_cast<double>(b) / bPrime));
}

template <typename Factor>
SegmentCost
WindowEvaluator::segmentCost(int modelIdx, int bIdx,
                             const LayerRange& range, bool head, int src,
                             int chiplet, bool writesBack,
                             Factor&& factor) const
{
    const Mcm& mcm = db_.mcm();
    const Model& model = db_.scenario().models[modelIdx];
    const int bPrime = db_.miniBatchCandidates(modelIdx)[bIdx];
    const int steps = miniBatchSteps(modelIdx, bIdx);
    const int c = chiplet;
    const Dataflow df = mcm.chiplet(c).spec.dataflow;

    const double compute =
        db_.segmentCycles(modelIdx, bIdx, df, range.first, range.last);
    const double intraEnergy = db_.segmentEnergyNj(
        modelIdx, bIdx, df, range.first, range.last);

    // DRAM-side transfers route between the chiplet and its nearest
    // memory interface; the phased contention factor charges them
    // against their phase's link loads (the static factor returns 1
    // for non-activation phases, so these sites multiply by 1 —
    // bit-identical to the pre-phase code).
    const int mem = mcm.nearestMemInterface(c);

    // Input side: DRAM or entry-chiplet NoP for the head segment,
    // inter-segment NoP (the previous layer's output) otherwise.
    double ipLat = 0.0;
    double ipEnergy = 0.0;
    if (head && src < 0) {
        const double bytes = model.layers[range.first].inputBytes() *
                             bPrime;
        ipLat = comm_.dramLatencyCycles(
            bytes * factor(mem, c, CommPhase::Spill), c);
        ipEnergy = comm_.dramEnergyNj(bytes, c);
    } else {
        const double bytes =
            (head ? model.layers[range.first].inputBytes()
                  : model.layers[range.first - 1].outputBytes()) *
            bPrime;
        ipLat = comm_.nopLatencyCycles(
            bytes * factor(src, c, CommPhase::Activation), src, c);
        ipEnergy = comm_.nopEnergyNj(bytes, src, c);
    }

    // Output side: DRAM writeback only when the model's final layer
    // completes here.
    double opLat = 0.0;
    double opEnergy = 0.0;
    if (writesBack) {
        const double bytes = model.layers[range.last].outputBytes() *
                             bPrime;
        opLat = comm_.dramLatencyCycles(
            bytes * factor(c, mem, CommPhase::Spill), c);
        opEnergy = comm_.dramEnergyNj(bytes, c);
    }

    const bool resident = segmentResident(modelIdx, range, c, bPrime);
    const double wBytes = segmentWeights(modelIdx, range);
    const double wLat = comm_.dramLatencyCycles(
        wBytes * factor(mem, c, CommPhase::WeightLoad), c);
    const double wEnergy = comm_.dramEnergyNj(wBytes, c);

    SegmentCost segCost;
    segCost.weightsResident = resident;
    segCost.steadySampleCycles =
        ipLat + compute + opLat + (resident ? 0.0 : wLat);
    segCost.firstSampleCycles =
        segCost.steadySampleCycles + (resident ? wLat : 0.0);
    segCost.energyNj = steps * (intraEnergy + ipEnergy + opEnergy) +
                       wEnergy * (resident ? 1.0 : steps);
    return segCost;
}

namespace
{

/**
 * Left-to-right fold of the pipelining formula of Section III-E:
 * sum_k Lat(sg_k|b') + (b/b' - 1) * max_k Lat(sg_k|b'), with energy
 * summed over segments. evalModel() and SoloPricer::price() both fold
 * through it, so the two agree in every floating-point operation.
 */
struct PipelineFold
{
    double firstSum = 0.0;
    double maxSteady = 0.0;
    double energyNj = 0.0;

    void
    add(double firstSample, double steadySample, double energy)
    {
        maxSteady = std::max(maxSteady, steadySample);
        energyNj += energy;
        firstSum += firstSample;
    }

    double latency(int steps) const
    {
        return firstSum + (steps - 1) * maxSteady;
    }
};

struct NoContention
{
    int operator()(int, int, CommPhase) const { return 1; }
};

} // namespace

template <typename Factor>
ModelWindowCost
WindowEvaluator::evalModel(const WindowPlacement& placement,
                           const ModelPlacement& mp, int bIdx,
                           Factor&& factor) const
{
    const Model& model = db_.scenario().models[mp.modelIdx];
    ModelWindowCost modelCost;
    modelCost.segments.reserve(mp.segments.size());
    PipelineFold fold;
    for (std::size_t k = 0; k < mp.segments.size(); ++k) {
        const PlacedSegment& seg = mp.segments[k];
        const int src = k == 0 ? entryOf(placement, mp.modelIdx)
                               : mp.segments[k - 1].chiplet;
        const bool writesBack = k + 1 == mp.segments.size() &&
                                seg.range.last == model.numLayers() - 1;
        const SegmentCost segCost =
            segmentCost(mp.modelIdx, bIdx, seg.range, k == 0, src,
                        seg.chiplet, writesBack, factor);
        fold.add(segCost.firstSampleCycles, segCost.steadySampleCycles,
                 segCost.energyNj);
        modelCost.segments.push_back(segCost);
    }
    modelCost.latencyCycles =
        fold.latency(miniBatchSteps(mp.modelIdx, bIdx));
    modelCost.energyNj = fold.energyNj;
    return modelCost;
}

WindowCost
WindowEvaluator::evaluate(const WindowPlacement& placement) const
{
    // Profiled solves count every full evaluation (SoloPricer terms
    // are counted by their users); unprofiled runs pay one predicted
    // branch.
    obs::SearchCounters::bump(db_.counters(),
                              &obs::SearchCounters::windowEvals);
    validate(placement);
    const Scenario& sc = db_.scenario();
    const Mcm& mcm = db_.mcm();
    const Topology& topo = mcm.topology();
    const int numNodes = topo.numNodes();

    const NoContention noContention;

    // ---- Step 1: choose the mini-batch b' per model. Section III-E
    // leaves b' <= b free; candidates are capacity folding vs
    // streaming, compared contention-free by latency. The slowest
    // model's contention-free latency doubles as the phased model's
    // window time base (the denominator of each link's utilization).
    std::vector<int> chosenBIdx(placement.models.size(), 0);
    double baselineCycles = 0.0;
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const int numCandidates = static_cast<int>(
            db_.miniBatchCandidates(mp.modelIdx).size());
        double bestLat = std::numeric_limits<double>::infinity();
        for (int bIdx = 0; bIdx < numCandidates; ++bIdx) {
            const double lat =
                evalModel(placement, mp, bIdx, noContention)
                    .latencyCycles;
            if (lat < bestLat) {
                bestLat = lat;
                chosenBIdx[mi] = bIdx;
            }
        }
        baselineCycles = std::max(baselineCycles, bestLat);
    }

    // ---- Step 2: enumerate flows for the contention model. --------
    std::vector<Flow> flows;
    double totalDramBytes = 0.0;
    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        const ModelPlacement& mp = placement.models[mi];
        const Model& model = sc.models[mp.modelIdx];
        const int bPrime =
            db_.miniBatchCandidates(mp.modelIdx)[chosenBIdx[mi]];
        const int b = model.batch;
        const int steps = static_cast<int>(
            std::ceil(static_cast<double>(b) / bPrime));
        for (std::size_t k = 0; k < mp.segments.size(); ++k) {
            const PlacedSegment& seg = mp.segments[k];
            const int c = seg.chiplet;
            const int mem = mcm.nearestMemInterface(c);
            const Layer& first = model.layers[seg.range.first];
            const Layer& last = model.layers[seg.range.last];

            const bool resident =
                segmentResident(mp.modelIdx, seg.range, c, bPrime);
            // Non-resident weights re-stream once per mini-batch step.
            const double wBytes =
                segmentWeights(mp.modelIdx, seg.range) *
                (resident ? 1.0 : steps);
            flows.push_back(
                {mem, c, wBytes, true, CommPhase::WeightLoad});
            totalDramBytes += wBytes;

            if (k == 0) {
                const double inBytes = first.inputBytes() * b;
                const int entry = entryOf(placement, mp.modelIdx);
                if (entry >= 0) {
                    flows.push_back({entry, c, inBytes, false,
                                     CommPhase::Activation});
                } else {
                    flows.push_back(
                        {mem, c, inBytes, true, CommPhase::Spill});
                    totalDramBytes += inBytes;
                }
            } else {
                const PlacedSegment& prev = mp.segments[k - 1];
                const Layer& prevLast = model.layers[prev.range.last];
                flows.push_back({prev.chiplet, c,
                                 prevLast.outputBytes() * b, false,
                                 CommPhase::Activation});
            }
            // Only the model's final layer writes results off-chip; a
            // model continuing into a later window hands its data to
            // that window's head segment (consumer side, NoP-priced).
            const bool modelEnds =
                seg.range.last == model.numLayers() - 1;
            if (k + 1 == mp.segments.size() && modelEnds) {
                const double outBytes = last.outputBytes() * b;
                flows.push_back(
                    {c, mem, outBytes, true, CommPhase::Spill});
                totalDramBytes += outBytes;
            }
        }
    }

    // Per-link flow counts over the precomputed routes, in a flat
    // vector indexed by dense link id. Evaluation must never grow the
    // load table: an earlier std::map version inserted zero entries
    // on every contention-factor read (a silent allocation per query);
    // the fixed-size vector makes that structurally impossible
    // (regression-tested in tests/test_cost.cc).
    std::vector<int> linkLoad(options_.contention ? topo.numLinks() : 0,
                              0);
    if (options_.contention) {
        for (const Flow& f : flows) {
            if (f.src == f.dst || f.bytes <= 0.0)
                continue;
            for (const int id : topo.routeLinkIds(f.src, f.dst))
                ++linkLoad[id];
        }
    }
    // The static per-flow contention factor depends only on
    // (src, dst) — it applies solely to activation flows and returns
    // 1 for the DRAM-side phases — so it is computed once per pair
    // and memoized in a flat table instead of being re-derived for
    // every segment that prices a transfer. (Empty when contention is
    // off — the solo evaluations of the beam search never touch it.)
    std::vector<int> factorMemo(
        options_.contention
            ? static_cast<std::size_t>(numNodes) * numNodes
            : 0,
        0);
    auto contentionFactor = [&](int src, int dst, CommPhase phase) {
        if (!options_.contention || src == dst ||
            phase != CommPhase::Activation)
            return 1;
        int& memo =
            factorMemo[static_cast<std::size_t>(src) * numNodes + dst];
        if (memo == 0) {
            int sharers = 1;
            for (const int id : topo.routeLinkIds(src, dst))
                sharers = std::max(sharers, linkLoad[id]);
            memo = sharers;
        }
        return memo;
    };

    // Phased fidelity: per-phase per-link byte loads (medium-
    // aggregated on a broadcast plane) and a (src, dst, phase)-keyed
    // memo of M/D/1 bottleneck factors. Built only when phased, so
    // the static hot path allocates nothing new.
    const bool phased = options_.contention &&
                        options_.fidelity == CommFidelity::Phased;
    std::optional<PhasedLinkTable> phaseTable;
    std::vector<double> phasedMemo;
    if (phased) {
        phaseTable.emplace(topo);
        for (const Flow& f : flows) {
            if (f.src == f.dst || f.bytes <= 0.0)
                continue;
            phaseTable->addFlow(f.phase,
                                topo.routeLinkIds(f.src, f.dst),
                                f.bytes);
        }
        phasedMemo.assign(static_cast<std::size_t>(numNodes) *
                              numNodes * kNumCommPhases,
                          0.0);
    }
    auto phasedFactor = [&](int src, int dst, CommPhase phase) {
        if (src == dst)
            return 1.0;
        double& memo =
            phasedMemo[(static_cast<std::size_t>(src) * numNodes +
                        dst) *
                           kNumCommPhases +
                       static_cast<int>(phase)];
        if (memo == 0.0) {
            double worst = 1.0;
            for (const int id : topo.routeLinkIds(src, dst))
                worst = std::max(
                    worst, comm_.queueingFactor(
                               phaseTable->load(phase, id),
                               baselineCycles, id));
            memo = worst;
        }
        return memo;
    };

    // ---- Step 3: final costs with contention. ----------------------
    WindowCost window;
    window.dramBytes = totalDramBytes;
    for (const int load : linkLoad)
        window.maxLinkSharers = std::max(window.maxLinkSharers, load);

    for (std::size_t mi = 0; mi < placement.models.size(); ++mi) {
        ModelWindowCost modelCost =
            !options_.contention
                ? evalModel(placement, placement.models[mi],
                            chosenBIdx[mi], noContention)
                : (phased ? evalModel(placement, placement.models[mi],
                                      chosenBIdx[mi], phasedFactor)
                          : evalModel(placement, placement.models[mi],
                                      chosenBIdx[mi],
                                      contentionFactor));
        window.latencyCycles =
            std::max(window.latencyCycles, modelCost.latencyCycles);
        window.energyNj += modelCost.energyNj;
        window.perModel.push_back(std::move(modelCost));
    }
    for (const double f : phasedMemo)
        window.maxQueueFactor = std::max(window.maxQueueFactor, f);

    if (options_.dramRoofline) {
        window.dramBoundCycles =
            totalDramBytes / comm_.offchipBytesPerCycle();
        window.latencyCycles =
            std::max(window.latencyCycles, window.dramBoundCycles);
    }
    return window;
}

SoloPricer::SoloPricer(const WindowEvaluator& eval, int modelIdx,
                       std::vector<LayerRange> segments, int entry)
    : eval_(eval), modelIdx_(modelIdx), entry_(entry),
      segments_(std::move(segments))
{
    const CostDb& db = eval_.db_;
    SCAR_REQUIRE(!eval_.options_.contention &&
                     !eval_.options_.dramRoofline,
                 "SoloPricer requires an evaluator with contention and "
                 "dramRoofline disabled");
    const Scenario& sc = db.scenario();
    SCAR_REQUIRE(modelIdx_ >= 0 && modelIdx_ < sc.numModels(),
                 "bad model index ", modelIdx_);
    const Model& model = sc.models[modelIdx_];
    SCAR_REQUIRE(!segments_.empty(), "model ", model.name,
                 " placed with no segments");
    const Topology& topo = db.mcm().topology();
    const int numChiplets = topo.numNodes();
    SCAR_REQUIRE(entry_ >= -1 && entry_ < numChiplets,
                 "bad entry chiplet ", entry_);
    int prevLast = segments_.front().first - 1;
    for (const LayerRange& range : segments_) {
        requireSegmentRange(model, range, prevLast);
        prevLast = range.last;
    }
    modelEnds_ = prevLast == model.numLayers() - 1;

    const int numCandidates =
        static_cast<int>(db.miniBatchCandidates(modelIdx_).size());
    steps_.reserve(numCandidates);
    for (int bIdx = 0; bIdx < numCandidates; ++bIdx)
        steps_.push_back(eval_.miniBatchSteps(modelIdx_, bIdx));
    const std::size_t numSlots =
        static_cast<std::size_t>(numChiplets) +
        (segments_.size() - 1) * static_cast<std::size_t>(topo.numLinks());
    terms_.resize(numSlots * numCandidates);
    slots_.resize(segments_.size());
}

SoloWindowCost
SoloPricer::price(const std::vector<int>& path)
{
    const Topology& topo = eval_.db_.mcm().topology();
    const int numChiplets = topo.numNodes();
    const int numSegs = static_cast<int>(segments_.size());
    SCAR_REQUIRE(static_cast<int>(path.size()) == numSegs, "path of ",
                 path.size(), " chiplets for ", numSegs, " segments");
    for (int k = 0; k < numSegs; ++k) {
        const int c = path[k];
        SCAR_REQUIRE(c >= 0 && c < numChiplets, "bad chiplet id ", c);
        for (int j = 0; j < k; ++j)
            SCAR_REQUIRE(path[j] != c, "chiplet ", c,
                         " hosts more than one segment in this window");
        if (k == 0) {
            slots_[k] = c;
            continue;
        }
        const int link = topo.linkId(path[k - 1], c);
        SCAR_REQUIRE(link >= 0, "path step ", path[k - 1], "->", c,
                     " is not a NoP edge");
        slots_[k] = numChiplets + (k - 1) * topo.numLinks() + link;
    }

    // evaluate() prices every mini-batch candidate contention-free in
    // its selection step and, with contention and the roofline off,
    // re-prices the winner bit-for-bit; so the selection loop's winner
    // IS the answer. Selection keeps the FIRST strict-< winner, and
    // evaluate()'s max(0, lat) and 0 + energy are identities on these
    // non-negative costs.
    const int numCandidates = static_cast<int>(steps_.size());
    SoloWindowCost best;
    double bestLat = std::numeric_limits<double>::infinity();
    for (int bIdx = 0; bIdx < numCandidates; ++bIdx) {
        PipelineFold fold;
        for (int k = 0; k < numSegs; ++k) {
            Term& term = terms_[static_cast<std::size_t>(slots_[k]) *
                                    numCandidates +
                                bIdx];
            if (term.firstSampleCycles < 0.0) {
                const SegmentCost cost = eval_.segmentCost(
                    modelIdx_, bIdx, segments_[k], k == 0,
                    k == 0 ? entry_ : path[k - 1], path[k],
                    k + 1 == numSegs && modelEnds_, NoContention{});
                term = {cost.firstSampleCycles, cost.steadySampleCycles,
                        cost.energyNj};
                ++fills_;
            } else {
                ++hits_;
            }
            fold.add(term.firstSampleCycles, term.steadySampleCycles,
                     term.energyNj);
        }
        const double lat = fold.latency(steps_[bIdx]);
        if (lat < bestLat) {
            bestLat = lat;
            best.latencyCycles = lat;
            best.energyNj = fold.energyNj;
        }
    }
    return best;
}

} // namespace scar
