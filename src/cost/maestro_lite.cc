#include "cost/maestro_lite.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/units.h"

namespace scar
{

namespace
{

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

/**
 * The K-tile after `kt`'s block in the tile searches: a tiling's cost
 * and traffic depend on kt only through ceil(k/kt) and
 * floor(numPes/kt), so both stay constant up to the returned kt - 1.
 * The searches compare with a strict <, so only a block's first kt
 * can win, and visiting block starts alone picks the same tile as
 * trying every kt. There are O(sqrt(k) + sqrt(numPes)) blocks.
 */
int
nextTileBlock(std::int64_t k, std::int64_t numPes, std::int64_t kt)
{
    const std::int64_t kPasses = (k + kt - 1) / kt;
    std::int64_t last = numPes / (numPes / kt);
    if (kPasses > 1)
        last = std::min(last, (k - 1) / (kPasses - 1));
    return static_cast<int>(last + 1);
}

} // namespace

LayerCost
MaestroLite::evalLayer(const Layer& layer, const ChipletSpec& spec,
                       int miniBatch) const
{
    SCAR_REQUIRE(spec.numPes >= 1, "chiplet needs at least one PE");
    SCAR_REQUIRE(miniBatch >= 1, "mini-batch must be >= 1");
    switch (layer.type) {
      case OpType::Pool:
      case OpType::Elementwise:
        return evalSpatialOnly(layer, spec, miniBatch);
      case OpType::Conv2D:
      case OpType::DepthwiseConv:
      case OpType::Gemm:
        break;
    }
    switch (spec.dataflow) {
      case Dataflow::NvdlaWS:
        return evalWeightStationary(layer, spec, miniBatch);
      case Dataflow::ShiOS:
        return evalOutputStationary(layer, spec, miniBatch);
      case Dataflow::EyerissRS:
        return evalRowStationary(layer, spec, miniBatch);
    }
    return evalWeightStationary(layer, spec, miniBatch);
}

LayerCost
MaestroLite::evalRowStationary(const Layer& layer,
                               const ChipletSpec& spec,
                               int miniBatch) const
{
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double window = static_cast<double>(d.r) * d.s;
    const double outX = static_cast<double>(layer.outX());
    const double npes = spec.numPes;
    const double nb = miniBatch;

    // Row-stationary: spatial mapping over (K, output rows); batch
    // samples contribute extra rows. The K-tile is searched as in the
    // weight-stationary case; rows take the remaining PEs.
    const double rows = static_cast<double>(layer.outY()) * nb;
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestKt = 0.0;
    double bestYt = 0.0;
    for (int kt = 1; kt <= ktMax;
         kt = nextTileBlock(d.k, spec.numPes, kt)) {
        const double yt = std::min(rows, std::floor(npes / kt));
        if (yt < 1.0)
            break;
        const double passes = ceilDiv(k, kt) * ceilDiv(rows, yt);
        if (bestKt == 0.0 || passes < bestPasses) {
            bestPasses = passes;
            bestKt = kt;
            bestYt = yt;
        }
    }

    LayerCost cost;
    cost.macs = layer.macs();
    cost.computeCycles = bestPasses * c * window * outX / nb;

    // Filter rows stay in PEs across a row pass; inputs re-stream per
    // K pass; partial sums accumulate within the row (no L2 spill).
    const double kPasses = ceilDiv(k, bestKt);
    const double rowPasses = ceilDiv(rows, bestYt);
    const double inputReads = layer.inputBytes() * kPasses;
    const double weightReads = layer.weightBytes() * rowPasses / nb;
    cost.l2AccessBytes =
        weightReads + inputReads + layer.outputBytes();
    finishCost(layer, spec, cost);
    return cost;
}

LayerCost
MaestroLite::evalWeightStationary(const Layer& layer,
                                  const ChipletSpec& spec,
                                  int miniBatch) const
{
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    // Depthwise layers have no cross-channel reduction to parallelize.
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double window = static_cast<double>(d.r) * d.s;
    const double spatialOut = static_cast<double>(layer.outY()) *
                              layer.outX();
    const double npes = spec.numPes;
    const double nb = miniBatch;

    // Search the K-tile size; the C-tile takes the remaining PEs.
    // Cost = (#K passes) * (#C passes) * R*S*OY*OX cycles per sample;
    // ties break toward the tiling with the least L2 traffic (input
    // re-streams per K pass, partial-sum spills per extra C pass).
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestTraffic = 0.0;
    double bestKt = 0.0;
    double bestCt = 0.0;
    for (int kt = 1; kt <= ktMax;
         kt = nextTileBlock(d.k, spec.numPes, kt)) {
        const double ct = std::min(c, std::floor(npes / kt));
        if (ct < 1.0)
            break;
        const double passes = ceilDiv(k, kt) * ceilDiv(c, ct);
        const double traffic =
            layer.inputBytes() * ceilDiv(k, kt) +
            2.0 * layer.outputBytes() * (ceilDiv(c, ct) - 1.0);
        if (bestKt == 0.0 || passes < bestPasses ||
            (passes == bestPasses && traffic < bestTraffic)) {
            bestPasses = passes;
            bestTraffic = traffic;
            bestKt = kt;
            bestCt = ct;
        }
    }

    LayerCost cost;
    cost.macs = layer.macs();
    // Batch extends the temporal output loop: per-sample cycles are
    // unchanged, but weights stay in the array across the mini-batch.
    cost.computeCycles = bestPasses * window * spatialOut;

    const double kPasses = ceilDiv(k, bestKt);
    const double cPasses = ceilDiv(c, bestCt);
    const double inputReads = layer.type == OpType::DepthwiseConv
                                  ? layer.inputBytes()
                                  : layer.inputBytes() * kPasses;
    const double psumTraffic =
        2.0 * layer.outputBytes() * std::max(0.0, cPasses - 1.0);
    // Weights are fetched once per mini-batch: amortized per sample.
    cost.l2AccessBytes = layer.weightBytes() / nb + inputReads +
                         psumTraffic + layer.outputBytes();
    finishCost(layer, spec, cost);
    return cost;
}

LayerCost
MaestroLite::evalOutputStationary(const Layer& layer,
                                  const ChipletSpec& spec,
                                  int miniBatch) const
{
    const auto& d = layer.dims;
    const double k = static_cast<double>(d.k);
    const double c = layer.type == OpType::DepthwiseConv
                         ? 1.0
                         : static_cast<double>(d.c);
    const double window = static_cast<double>(d.r) * d.s;
    const double spatialOut = static_cast<double>(layer.outY()) *
                              layer.outX();
    const double npes = spec.numPes;
    const double nb = miniBatch;

    // Batch samples contribute additional independent output pixels:
    // the OS spatial mapping covers OY*OX*nb positions.
    const double totalOut = spatialOut * nb;
    const double pt = std::min(totalOut, npes);
    const double passes = ceilDiv(totalOut, pt);

    LayerCost cost;
    cost.macs = layer.macs();
    cost.computeCycles = passes * k * c * window / nb;

    // Weights re-stream once per spatial pass; the input tile is held
    // in PE-local storage across the temporal K/C loops (ShiDianNao's
    // neighbour-sharing register array), so each sample's input is
    // fetched from L2 once. Outputs, being stationary, write once.
    const double weightReads = layer.weightBytes() * passes / nb;
    cost.l2AccessBytes =
        weightReads + layer.inputBytes() + layer.outputBytes();
    finishCost(layer, spec, cost);
    return cost;
}

LayerCost
MaestroLite::evalSpatialOnly(const Layer& layer, const ChipletSpec& spec,
                             int miniBatch) const
{
    const double outs = layer.outputElems() * miniBatch;
    const double window = static_cast<double>(layer.dims.r) * layer.dims.s;
    const double p = std::min(outs, static_cast<double>(spec.numPes));

    LayerCost cost;
    cost.macs = layer.macs();
    cost.computeCycles = ceilDiv(outs, p) * window / miniBatch;
    cost.l2AccessBytes = layer.inputBytes() + layer.outputBytes();
    finishCost(layer, spec, cost);
    return cost;
}

void
MaestroLite::finishCost(const Layer& layer, const ChipletSpec& spec,
                        LayerCost& cost) const
{
    cost.weightBytes = layer.weightBytes();
    cost.inputBytes = layer.inputBytes();
    cost.outputBytes = layer.outputBytes();

    const double feedBw = std::min(spec.bwNocGBps, spec.bwMemGBps);
    cost.streamCycles = cost.l2AccessBytes / gbpsToBytesPerCycle(feedBw);
    cost.utilization =
        cost.macs / (cost.computeCycles * spec.numPes);
    cost.intraEnergyNj = pjToNj(cost.macs * energy_.macPj +
                                cost.l2AccessBytes * energy_.l2PjPerByte);
}

} // namespace scar
