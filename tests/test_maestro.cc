/**
 * @file
 * Tests for the MaestroLite intra-chiplet cost model — in particular
 * the dataflow-affinity properties that drive every scheduling result
 * in the paper:
 *  - GEMM / late-CNN layers (large K*C) favor the NVDLA-like
 *    weight-stationary dataflow;
 *  - early CNN layers (large output grids) favor the Shi-diannao-like
 *    output-stationary dataflow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "cost/maestro_lite.h"
#include "eval/scenario_suite.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

ChipletSpec
spec(Dataflow df, int pes = 4096)
{
    ChipletSpec s;
    s.dataflow = df;
    s.numPes = pes;
    return s;
}

Layer
convLayer(std::int64_t k, std::int64_t c, std::int64_t r, std::int64_t s,
          std::int64_t y, std::int64_t x, std::int64_t stride = 1)
{
    Layer layer;
    layer.name = "conv";
    layer.type = OpType::Conv2D;
    layer.dims = LayerDims{k, c, r, s, y, x, stride, stride};
    return layer;
}

/**
 * The linear K-tile searches MaestroLite ran before it visited only
 * block starts, kept verbatim as the oracle of the block search (plus
 * the cost finish they feed): every kt in 1..min(K, numPes).
 */
namespace reference
{

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

void
finishCost(const Layer& layer, const ChipletSpec& spec, LayerCost& cost,
           const EnergyParams& energy_)
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

LayerCost
evalRowStationary(const Layer& layer, const ChipletSpec& spec,
                  int miniBatch, const EnergyParams& energy)
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

    const double rows = static_cast<double>(layer.outY()) * nb;
    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestKt = 0.0;
    double bestYt = 0.0;
    for (int kt = 1; kt <= ktMax; ++kt) {
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

    const double kPasses = ceilDiv(k, bestKt);
    const double rowPasses = ceilDiv(rows, bestYt);
    const double inputReads = layer.inputBytes() * kPasses;
    const double weightReads = layer.weightBytes() * rowPasses / nb;
    cost.l2AccessBytes =
        weightReads + inputReads + layer.outputBytes();
    finishCost(layer, spec, cost, energy);
    return cost;
}

LayerCost
evalWeightStationary(const Layer& layer, const ChipletSpec& spec,
                     int miniBatch, const EnergyParams& energy)
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

    const int ktMax = static_cast<int>(std::min<double>(k, npes));
    double bestPasses = 0.0;
    double bestTraffic = 0.0;
    double bestKt = 0.0;
    double bestCt = 0.0;
    for (int kt = 1; kt <= ktMax; ++kt) {
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
    cost.computeCycles = bestPasses * window * spatialOut;

    const double kPasses = ceilDiv(k, bestKt);
    const double cPasses = ceilDiv(c, bestCt);
    const double inputReads = layer.type == OpType::DepthwiseConv
                                  ? layer.inputBytes()
                                  : layer.inputBytes() * kPasses;
    const double psumTraffic =
        2.0 * layer.outputBytes() * std::max(0.0, cPasses - 1.0);
    cost.l2AccessBytes = layer.weightBytes() / nb + inputReads +
                         psumTraffic + layer.outputBytes();
    finishCost(layer, spec, cost, energy);
    return cost;
}

} // namespace reference

/** Bitwise equality of every LayerCost field. */
void
expectBitEqual(const LayerCost& got, const LayerCost& want,
               const std::string& what)
{
    const std::pair<const char*, double LayerCost::*> fields[] = {
        {"macs", &LayerCost::macs},
        {"computeCycles", &LayerCost::computeCycles},
        {"streamCycles", &LayerCost::streamCycles},
        {"utilization", &LayerCost::utilization},
        {"l2AccessBytes", &LayerCost::l2AccessBytes},
        {"intraEnergyNj", &LayerCost::intraEnergyNj},
        {"weightBytes", &LayerCost::weightBytes},
        {"inputBytes", &LayerCost::inputBytes},
        {"outputBytes", &LayerCost::outputBytes},
    };
    for (const auto& [name, field] : fields) {
        EXPECT_EQ(std::memcmp(&(got.*field), &(want.*field),
                              sizeof(double)),
                  0)
            << what << ": " << name << " " << got.*field << " vs "
            << want.*field;
    }
}

/**
 * Checks the block tile search against the linear oracle for one
 * layer on every PE count and mini-batch of the sweep, both searched
 * dataflows.
 */
void
checkAgainstLinearScan(const MaestroLite& model, const Layer& layer)
{
    static const int kPes[] = {1, 2, 3, 7, 64, 256, 1000, 4096, 5000,
                               16384};
    static const int kBatches[] = {1, 2, 3, 8, 32};
    for (int pes : kPes) {
        for (int nb : kBatches) {
            const std::string what =
                layer.name + " K=" + std::to_string(layer.dims.k) +
                " C=" + std::to_string(layer.dims.c) +
                " pes=" + std::to_string(pes) +
                " nb=" + std::to_string(nb);
            expectBitEqual(
                model.evalLayer(layer, spec(Dataflow::NvdlaWS, pes), nb),
                reference::evalWeightStationary(
                    layer, spec(Dataflow::NvdlaWS, pes), nb,
                    model.energyParams()),
                what + " WS");
            expectBitEqual(
                model.evalLayer(layer, spec(Dataflow::EyerissRS, pes), nb),
                reference::evalRowStationary(
                    layer, spec(Dataflow::EyerissRS, pes), nb,
                    model.energyParams()),
                what + " RS");
        }
    }
}

TEST(TileSearchOracle, ZooAndSuiteLayersMatchLinearScan)
{
    std::vector<Model> models = {
        zoo::gptL(1),      zoo::bertLarge(1), zoo::bertBase(1),
        zoo::resNet50(1),  zoo::uNet(1),      zoo::googleNet(1),
        zoo::d2go(1),      zoo::planeRcnn(1), zoo::midas(1),
        zoo::emformer(1),  zoo::hrvit(1),     zoo::handSP(1),
        zoo::eyeCod(1),    zoo::sp2Dense(1)};
    for (int idx = 1; idx <= 10; ++idx) {
        for (const Model& m : suite::byIndex(idx).models)
            models.push_back(m);
    }
    // Layers repeat across blocks and models; each distinct shape is
    // checked once.
    using Shape = std::tuple<int, std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t>;
    std::map<Shape, const Layer*> shapes;
    for (const Model& m : models) {
        for (const Layer& l : m.layers) {
            // Pooling and element-wise layers search no tile.
            if (l.type == OpType::Pool || l.type == OpType::Elementwise)
                continue;
            const auto& d = l.dims;
            shapes.emplace(Shape{static_cast<int>(l.type), d.k, d.c, d.r,
                                 d.s, d.y, d.x, d.strideY, d.strideX},
                           &l);
        }
    }
    ASSERT_GT(shapes.size(), 50u);
    const MaestroLite model;
    for (const auto& [shape, layer] : shapes)
        checkAgainstLinearScan(model, *layer);
}

TEST(TileSearchOracle, RandomShapesMatchLinearScan)
{
    // K around and across the PE counts (primes included), up to 70k.
    const std::vector<std::int64_t> edgeKs = {
        1,    2,    3,    5,    7,     63,    64,    65,   255,
        256,  257,  997,  999,  1000,  1001,  4093,  4095, 4096,
        4097, 4999, 5000, 5003, 16381, 16384, 16411, 65521, 70000};
    Rng rng(24);
    std::vector<Layer> layers;
    for (std::int64_t k : edgeKs) {
        layers.push_back(makeGemmLayer(0, "gemm", rng.uniformInt(1, 512),
                                       k, rng.uniformInt(1, 8192)));
    }
    for (int i = 0; i < 150; ++i) {
        const std::int64_t k = rng.uniformInt(1, 70000);
        if (i % 2 == 0) {
            layers.push_back(makeGemmLayer(0, "gemm",
                                           rng.uniformInt(1, 512), k,
                                           rng.uniformInt(1, 20000)));
        } else {
            const int r = rng.uniformInt(1, 3) * 2 - 1;
            const int y = rng.uniformInt(r, 64);
            Layer conv = convLayer(k, rng.uniformInt(1, 2048), r, r, y,
                                   rng.uniformInt(r, 64),
                                   rng.uniformInt(1, 2));
            if (i % 6 == 1)
                conv.type = OpType::DepthwiseConv;
            layers.push_back(conv);
        }
    }
    const MaestroLite model;
    for (const Layer& layer : layers)
        checkAgainstLinearScan(model, layer);
}

TEST(MaestroLite, GemmFavorsWeightStationary)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "ffn", 128, 5120, 1280);
    const LayerCost ws = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(gemm, spec(Dataflow::ShiOS));
    // The affinity manifests through utilization/latency (the paper's
    // Table IV shows near-equal energies but ~4x latency gaps).
    EXPECT_LT(ws.intraCycles() * 8.0, os.intraCycles());
    EXPECT_LT(ws.intraEnergyNj, os.intraEnergyNj * 2.0);
    EXPECT_LT(os.intraEnergyNj, ws.intraEnergyNj * 2.0);
    // OS has only M=128 output rows to parallelize.
    EXPECT_LT(os.utilization, 0.05);
    EXPECT_GT(ws.utilization, 0.5);
    // EDP (cycles x energy) strongly favors WS.
    EXPECT_LT(ws.intraCycles() * ws.intraEnergyNj,
              0.2 * os.intraCycles() * os.intraEnergyNj);
}

TEST(MaestroLite, EarlyConvFavorsOutputStationary)
{
    const MaestroLite model;
    const Layer conv1 = convLayer(64, 3, 7, 7, 224, 224, 2);
    const LayerCost ws = model.evalLayer(conv1, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(conv1, spec(Dataflow::ShiOS));
    EXPECT_LT(os.intraCycles(), ws.intraCycles());
    EXPECT_GT(os.utilization, 0.5);
    EXPECT_LT(ws.utilization, 0.1); // K*C = 192 of 4096 PEs
}

TEST(MaestroLite, LateConvFavorsWeightStationary)
{
    const MaestroLite model;
    // res5-style: 7x7 spatial, K*C large.
    const Layer late = convLayer(2048, 512, 1, 1, 7, 7, 1);
    const LayerCost ws = model.evalLayer(late, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(late, spec(Dataflow::ShiOS));
    EXPECT_LT(ws.intraCycles(), os.intraCycles());
    EXPECT_LT(os.utilization, 0.05); // 49 output pixels on 4096 PEs
}

TEST(MaestroLite, UtilizationBounded)
{
    const MaestroLite model;
    for (const Layer& l : zoo::resNet50(1).layers) {
        for (Dataflow df : kAllDataflows) {
            const LayerCost cost = model.evalLayer(l, spec(df));
            EXPECT_GT(cost.utilization, 0.0) << l.name;
            EXPECT_LE(cost.utilization, 1.0 + 1e-9) << l.name;
        }
    }
}

TEST(MaestroLite, ComputeCyclesLowerBound)
{
    // Cycles can never beat macs / numPes.
    const MaestroLite model;
    for (const Layer& l : zoo::googleNet(1).layers) {
        for (Dataflow df : kAllDataflows) {
            const LayerCost cost = model.evalLayer(l, spec(df));
            EXPECT_GE(cost.computeCycles * 4096.0, cost.macs * 0.999)
                << l.name;
        }
    }
}

TEST(MaestroLite, MorePesNeverSlower)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 64, 1024, 1024);
    for (Dataflow df : kAllDataflows) {
        const LayerCost small = model.evalLayer(gemm, spec(df, 256));
        const LayerCost big = model.evalLayer(gemm, spec(df, 4096));
        EXPECT_LE(big.computeCycles, small.computeCycles);
    }
}

TEST(MaestroLite, WeightStationaryReadsWeightsOnce)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 128, 2048, 1024);
    const LayerCost ws = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    // WS L2 traffic includes weights exactly once.
    EXPECT_GE(ws.l2AccessBytes, gemm.weightBytes());
}

TEST(MaestroLite, OutputStationaryRestreamsPerSpatialPass)
{
    // A conv whose output grid exceeds the PE array forces multiple
    // OS spatial passes, each re-streaming weights and inputs; the WS
    // mapping covers K*C = 4096 in one pass and reads inputs once.
    const MaestroLite model;
    const Layer conv = convLayer(64, 64, 3, 3, 112, 112);
    const LayerCost ws = model.evalLayer(conv, spec(Dataflow::NvdlaWS));
    const LayerCost os = model.evalLayer(conv, spec(Dataflow::ShiOS));
    EXPECT_GT(os.l2AccessBytes, ws.l2AccessBytes);
    // ceil(112*112 / 4096) = 4 passes of weight streaming; the input
    // tile is read once from L2 (PE-local reuse across passes).
    EXPECT_GE(os.l2AccessBytes, 4.0 * conv.weightBytes() +
                                    conv.inputBytes() +
                                    conv.outputBytes());
}

TEST(MaestroLite, OutputStationaryWritesOutputsOnce)
{
    const MaestroLite model;
    const Layer conv = convLayer(64, 64, 3, 3, 56, 56);
    const LayerCost os = model.evalLayer(conv, spec(Dataflow::ShiOS));
    EXPECT_GE(os.l2AccessBytes, conv.outputBytes());
}

TEST(MaestroLite, PoolIsDataflowAgnostic)
{
    const MaestroLite model;
    Layer pool;
    pool.type = OpType::Pool;
    pool.dims = LayerDims{64, 64, 2, 2, 56, 56, 2, 2};
    const LayerCost a = model.evalLayer(pool, spec(Dataflow::NvdlaWS));
    const LayerCost b = model.evalLayer(pool, spec(Dataflow::ShiOS));
    EXPECT_DOUBLE_EQ(a.computeCycles, b.computeCycles);
    EXPECT_DOUBLE_EQ(a.intraEnergyNj, b.intraEnergyNj);
}

TEST(MaestroLite, DepthwiseHandledPerChannel)
{
    const MaestroLite model;
    Layer dw;
    dw.type = OpType::DepthwiseConv;
    dw.dims = LayerDims{128, 128, 3, 3, 56, 56, 1, 1};
    for (Dataflow df : kAllDataflows) {
        const LayerCost cost = model.evalLayer(dw, spec(df));
        EXPECT_GT(cost.computeCycles, 0.0);
        EXPECT_LE(cost.utilization, 1.0 + 1e-9);
    }
}

TEST(MaestroLite, EnergyScalesWithMacsAndTraffic)
{
    const MaestroLite model;
    const Layer small = makeGemmLayer(0, "s", 16, 64, 64);
    const Layer large = makeGemmLayer(0, "l", 64, 256, 256);
    for (Dataflow df : kAllDataflows) {
        EXPECT_LT(model.evalLayer(small, spec(df)).intraEnergyNj,
                  model.evalLayer(large, spec(df)).intraEnergyNj);
    }
}

TEST(MaestroLite, StreamCyclesReflectBandwidth)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 128, 1024, 1024);
    ChipletSpec fast = spec(Dataflow::NvdlaWS);
    ChipletSpec slow = fast;
    slow.bwNocGBps = fast.bwNocGBps / 4.0;
    const LayerCost a = model.evalLayer(gemm, fast);
    const LayerCost b = model.evalLayer(gemm, slow);
    EXPECT_GT(b.streamCycles, a.streamCycles);
    EXPECT_DOUBLE_EQ(b.computeCycles, a.computeCycles);
}

TEST(MaestroLite, FootprintsMatchLayer)
{
    const MaestroLite model;
    const Layer gemm = makeGemmLayer(0, "g", 32, 128, 256);
    const LayerCost cost = model.evalLayer(gemm, spec(Dataflow::NvdlaWS));
    EXPECT_DOUBLE_EQ(cost.weightBytes, gemm.weightBytes());
    EXPECT_DOUBLE_EQ(cost.inputBytes, gemm.inputBytes());
    EXPECT_DOUBLE_EQ(cost.outputBytes, gemm.outputBytes());
}

} // namespace
} // namespace scar
