/**
 * @file
 * Tests for the description-file front end (paper Figure 4 inputs):
 * workload and MCM config parsing, error reporting, and round-trips
 * through the scheduler.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "io/config.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

TEST(IoScenario, ParsesZooModelsWithBatches)
{
    std::istringstream in(R"(# comment
scenario demo
model gptL batch=8
model resNet50 batch=32
)");
    const Scenario sc = io::parseScenario(in);
    EXPECT_EQ(sc.name, "demo");
    ASSERT_EQ(sc.models.size(), 2u);
    EXPECT_EQ(sc.models[0].name, "GPT-L");
    EXPECT_EQ(sc.models[0].batch, 8);
    EXPECT_EQ(sc.models[1].batch, 32);
    EXPECT_EQ(sc.models[0].numLayers(), zoo::gptL(8).numLayers());
}

TEST(IoScenario, DefaultBatchIsOne)
{
    std::istringstream in("scenario s\nmodel eyeCod\n");
    EXPECT_EQ(io::parseScenario(in).models[0].batch, 1);
}

TEST(IoScenario, ParsesCustomModelLayers)
{
    std::istringstream in(R"(scenario custom-demo
model custom name=MyNet batch=2
gemm name=fc1 m=128 n=1024 k=512
conv name=c1 k=64 c=3 r=7 s=7 y=224 x=224 stride=2
pool name=p1 c=64 y=112 x=112 window=2
eltwise name=e1 c=64 y=56 x=56
)");
    const Scenario sc = io::parseScenario(in);
    ASSERT_EQ(sc.models.size(), 1u);
    const Model& m = sc.models[0];
    EXPECT_EQ(m.name, "MyNet");
    ASSERT_EQ(m.numLayers(), 4);
    EXPECT_EQ(m.layers[0].type, OpType::Gemm);
    EXPECT_DOUBLE_EQ(m.layers[0].macs(), 128.0 * 1024 * 512);
    EXPECT_EQ(m.layers[1].type, OpType::Conv2D);
    EXPECT_EQ(m.layers[1].outY(), 112);
    EXPECT_EQ(m.layers[2].type, OpType::Pool);
    EXPECT_EQ(m.layers[3].type, OpType::Elementwise);
}

TEST(IoScenario, RejectsUnknownModel)
{
    std::istringstream in("scenario s\nmodel doesNotExist\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsLayerOutsideCustomModel)
{
    std::istringstream in("scenario s\ngemm m=1 n=1 k=1\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsEmptyFile)
{
    std::istringstream in("# nothing here\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsNonNumericAttribute)
{
    std::istringstream in(
        "scenario s\nmodel custom\ngemm m=abc n=1 k=1\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

/** Parses `text` with `parse` and returns the FatalError message
 *  (empty when nothing was thrown). */
template <typename Parse>
std::string
parseError(Parse parse, const std::string& text)
{
    std::istringstream in(text);
    try {
        parse(in);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

std::string
mcmError(const std::string& text)
{
    return parseError([](std::istream& in) { io::parseMcm(in); }, text);
}

std::string
scenarioError(const std::string& text)
{
    return parseError([](std::istream& in) { io::parseScenario(in); },
                      text);
}

TEST(IoScenario, RejectsTrailingJunkInAttribute)
{
    const std::string error = scenarioError("model resNet50 batch=4x\n");
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("'4x' is not an integer"), std::string::npos)
        << error;
}

TEST(IoScenario, RejectsOutOfRangeAttribute)
{
    const std::string error =
        scenarioError("scenario s\nmodel resNet50 batch=2147483648\n");
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("out of int range"), std::string::npos) << error;
}

TEST(IoMcm, RejectsNonNumericMeshSize)
{
    const std::string error = mcmError("mcm m\nmesh 3 x\n");
    EXPECT_NE(error.find("line 2: mesh height 'x' is not an integer"),
              std::string::npos)
        << error;
}

TEST(IoMcm, RejectsTrailingJunkInPeCount)
{
    const std::string error =
        mcmError("mcm m\ntemplate hetSides3x3\npes 1x\n");
    EXPECT_NE(error.find("line 3: PE count '1x' is not an integer"),
              std::string::npos)
        << error;
}

TEST(IoMcm, RejectsNonNumericExpressEndpoint)
{
    const std::string error = mcmError(
        "mcm m\nmesh 3 3\nmap NVD NVD NVD / NVD NVD NVD / NVD NVD NVD\n"
        "topology express\nexpress 0 8z\n");
    EXPECT_NE(error.find("line 5: express endpoint '8z' is not an integer"),
              std::string::npos)
        << error;
}

TEST(IoMcm, RejectsNonNumericBroadcastMember)
{
    const std::string error = mcmError(
        "mcm m\nmesh 3 3\nmap NVD NVD NVD / NVD NVD NVD / NVD NVD NVD\n"
        "topology broadcast\nbroadcast 0 four 8\n");
    EXPECT_NE(
        error.find("line 5: broadcast member 'four' is not an integer"),
        std::string::npos)
        << error;
}

TEST(IoMcm, RejectsOutOfRangeIntegers)
{
    for (const char* text :
         {"mcm m\npes 4294967296\n", "mcm m\nmesh 3 -99999999999\n"}) {
        const std::string error = mcmError(text);
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find("out of int range"), std::string::npos)
            << error;
    }
}

TEST(IoMcm, RejectsNonPositivePeCount)
{
    const std::string error =
        mcmError("mcm m\ntemplate hetSides3x3\npes 0\n");
    EXPECT_NE(error.find("line 3: PE count must be positive"),
              std::string::npos)
        << error;
}

TEST(IoMcm, ParsesTemplateReference)
{
    std::istringstream in("mcm pkg\ntemplate hetSides3x3\npes 256\n");
    const Mcm mcm = io::parseMcm(in);
    EXPECT_EQ(mcm.numChiplets(), 9);
    EXPECT_EQ(mcm.chiplet(0).spec.numPes, 256);
    EXPECT_EQ(mcm.numWithDataflow(Dataflow::NvdlaWS), 6);
}

TEST(IoMcm, ParsesCustomMeshWithDataflowMap)
{
    std::istringstream in(R"(mcm custom
mesh 3 2
pes 1024
map NVD RS Shi / Shi RS NVD
)");
    const Mcm mcm = io::parseMcm(in);
    EXPECT_EQ(mcm.name(), "custom");
    EXPECT_EQ(mcm.numChiplets(), 6);
    EXPECT_EQ(mcm.chiplet(0).spec.dataflow, Dataflow::NvdlaWS);
    EXPECT_EQ(mcm.chiplet(1).spec.dataflow, Dataflow::EyerissRS);
    EXPECT_EQ(mcm.chiplet(2).spec.dataflow, Dataflow::ShiOS);
    EXPECT_EQ(mcm.chiplet(3).spec.dataflow, Dataflow::ShiOS);
    EXPECT_TRUE(mcm.chiplet(0).memInterface);
    EXPECT_FALSE(mcm.chiplet(1).memInterface);
}

TEST(IoMcm, RejectsMapShapeMismatch)
{
    std::istringstream in("mcm m\nmesh 3 3\nmap NVD Shi / NVD Shi\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsUnknownTemplate)
{
    std::istringstream in("mcm m\ntemplate nope\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsUnknownDataflow)
{
    std::istringstream in("mcm m\nmesh 1 1\nmap XYZ\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsMissingGeometry)
{
    std::istringstream in("mcm m\npes 64\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoRoundTrip, ParsedConfigsScheduleEndToEnd)
{
    std::istringstream workload(
        "scenario io-demo\nmodel eyeCod batch=8\nmodel handSP "
        "batch=2\n");
    std::istringstream mcmIn(
        "mcm pkg\ntemplate hetTriple3x3\npes 256\n");
    const Scenario sc = io::parseScenario(workload);
    const Mcm mcm = io::parseMcm(mcmIn);
    ScarOptions opts;
    opts.nsplits = 2;
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    EXPECT_GT(result.metrics.latencySec, 0.0);
    EXPECT_EQ(result.windows.front().assignment.perModel.size(), 2u);
}

TEST(IoFiles, LoadsShippedConfigFiles)
{
    const std::string dir = SCAR_CONFIG_DIR;
    const Scenario sc =
        io::loadScenario(dir + "/workload_datacenter.cfg");
    EXPECT_EQ(sc.models.size(), 4u);
    const Mcm mcm = io::loadMcm(dir + "/mcm_het_sides.cfg");
    EXPECT_EQ(mcm.numChiplets(), 9);
    const Mcm custom = io::loadMcm(dir + "/mcm_custom_mesh.cfg");
    EXPECT_EQ(custom.numWithDataflow(Dataflow::EyerissRS), 3);
}

TEST(IoFiles, MissingFileRaisesFatal)
{
    EXPECT_THROW(io::loadScenario("/nonexistent/file.cfg"), FatalError);
    EXPECT_THROW(io::loadMcm("/nonexistent/file.cfg"), FatalError);
}

} // namespace
} // namespace scar
