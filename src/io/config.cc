#include "io/config.h"

#include <charconv>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace io
{

namespace
{

/**
 * Parses `token` as a base-10 int: the whole token must be consumed
 * and the value must fit an int, or FatalError names the line.
 */
int
parseInt(const std::string& token, int line, const std::string& what)
{
    int value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("line ", line, ": ", what, " '", token,
              "' is out of int range");
    if (ec != std::errc() || ptr != end)
        fatal("line ", line, ": ", what, " '", token,
              "' is not an integer");
    return value;
}

/** A parsed line: the keyword plus positional and key=value tokens. */
struct ConfigLine
{
    int number = 0;
    std::string keyword;
    std::vector<std::string> positional;
    std::map<std::string, std::string> kv;

    bool has(const std::string& key) const { return kv.count(key) > 0; }

    std::string
    str(const std::string& key) const
    {
        auto it = kv.find(key);
        SCAR_REQUIRE(it != kv.end(), "line ", number,
                     ": missing attribute '", key, "'");
        return it->second;
    }

    int
    num(const std::string& key) const
    {
        return parseInt(str(key), number, "attribute '" + key + "'");
    }

    int
    numOr(const std::string& key, int fallback) const
    {
        return has(key) ? num(key) : fallback;
    }

    /** Positional token i as an int. */
    int
    posNum(std::size_t i, const std::string& what) const
    {
        return parseInt(positional[i], number, what);
    }
};

/** Tokenizes one line; returns false for blanks and comments. */
bool
parseLine(const std::string& raw, int number, ConfigLine& out)
{
    const std::size_t hash = raw.find('#');
    const std::string text =
        hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream iss(text);
    std::string token;
    out = ConfigLine{};
    out.number = number;
    while (iss >> token) {
        if (out.keyword.empty()) {
            out.keyword = token;
        } else if (token.find('=') != std::string::npos) {
            const std::size_t eq = token.find('=');
            out.kv[token.substr(0, eq)] = token.substr(eq + 1);
        } else {
            out.positional.push_back(token);
        }
    }
    return !out.keyword.empty();
}

using ZooBuilder = std::function<Model(int)>;

const std::map<std::string, ZooBuilder>&
zooBuilders()
{
    static const std::map<std::string, ZooBuilder> builders = {
        {"gptL", [](int b) { return zoo::gptL(b); }},
        {"bertLarge", [](int b) { return zoo::bertLarge(b); }},
        {"bertBase", [](int b) { return zoo::bertBase(b); }},
        {"resNet50", [](int b) { return zoo::resNet50(b); }},
        {"uNet", [](int b) { return zoo::uNet(b); }},
        {"googleNet", [](int b) { return zoo::googleNet(b); }},
        {"d2go", [](int b) { return zoo::d2go(b); }},
        {"planeRcnn", [](int b) { return zoo::planeRcnn(b); }},
        {"midas", [](int b) { return zoo::midas(b); }},
        {"emformer", [](int b) { return zoo::emformer(b); }},
        {"hrvit", [](int b) { return zoo::hrvit(b); }},
        {"handSP", [](int b) { return zoo::handSP(b); }},
        {"eyeCod", [](int b) { return zoo::eyeCod(b); }},
        {"sp2Dense", [](int b) { return zoo::sp2Dense(b); }},
    };
    return builders;
}

Dataflow
parseDataflow(const std::string& token, int line)
{
    if (token == "NVD")
        return Dataflow::NvdlaWS;
    if (token == "Shi")
        return Dataflow::ShiOS;
    if (token == "RS")
        return Dataflow::EyerissRS;
    fatal("line ", line, ": unknown dataflow '", token,
          "' (expected NVD, Shi, or RS)");
}

/** Appends a custom layer described by a config line. */
void
appendCustomLayer(Model& model, const ConfigLine& line)
{
    Layer layer;
    layer.id = model.numLayers();
    layer.name = line.has("name")
                     ? line.str("name")
                     : line.keyword + std::to_string(layer.id);
    if (line.keyword == "gemm") {
        model.layers.push_back(
            makeGemmLayer(layer.id, layer.name, line.num("m"),
                          line.num("n"), line.num("k")));
        return;
    }
    if (line.keyword == "conv" || line.keyword == "dwconv") {
        layer.type = line.keyword == "conv" ? OpType::Conv2D
                                            : OpType::DepthwiseConv;
        const int stride = line.numOr("stride", 1);
        layer.dims = LayerDims{line.num("k"),
                               line.keyword == "conv" ? line.num("c")
                                                      : line.num("k"),
                               line.numOr("r", 3), line.numOr("s", 3),
                               line.num("y"), line.num("x"), stride,
                               stride};
    } else if (line.keyword == "pool") {
        layer.type = OpType::Pool;
        const int window = line.numOr("window", 2);
        const int stride = line.numOr("stride", window);
        layer.dims = LayerDims{line.num("c"), line.num("c"), window,
                               window, line.num("y"), line.num("x"),
                               stride, stride};
    } else if (line.keyword == "eltwise") {
        layer.type = OpType::Elementwise;
        layer.dims = LayerDims{line.num("c"), line.num("c"), 1, 1,
                               line.num("y"), line.num("x"), 1, 1};
    } else {
        fatal("line ", line.number, ": unknown layer kind '",
              line.keyword, "'");
    }
    layer.validate();
    model.layers.push_back(std::move(layer));
}

} // namespace

Scenario
parseScenario(std::istream& in)
{
    Scenario sc;
    Model* currentCustom = nullptr;
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        ConfigLine line;
        if (!parseLine(raw, number, line))
            continue;

        if (line.keyword == "scenario") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": scenario needs a name");
            sc.name = line.positional.front();
        } else if (line.keyword == "model") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": model needs a kind");
            const std::string kind = line.positional.front();
            const int batch = line.numOr("batch", 1);
            if (kind == "custom") {
                Model model;
                model.name = line.has("name") ? line.str("name")
                                              : "custom";
                model.batch = batch;
                sc.models.push_back(std::move(model));
                currentCustom = &sc.models.back();
            } else {
                auto it = zooBuilders().find(kind);
                SCAR_REQUIRE(it != zooBuilders().end(), "line ",
                             number, ": unknown zoo model '", kind,
                             "'");
                sc.models.push_back(it->second(batch));
                currentCustom = nullptr;
            }
        } else {
            SCAR_REQUIRE(currentCustom != nullptr, "line ", number,
                         ": layer line outside a custom model");
            appendCustomLayer(*currentCustom, line);
        }
    }
    SCAR_REQUIRE(!sc.models.empty(), "workload file defines no models");
    sc.finalize();
    return sc;
}

Scenario
loadScenario(const std::string& path)
{
    std::ifstream in(path);
    SCAR_REQUIRE(in.good(), "cannot open workload file: ", path);
    return parseScenario(in);
}

Mcm
parseMcm(std::istream& in)
{
    std::string name = "custom-mcm";
    std::string templateName;
    int meshW = 0;
    int meshH = 0;
    int pes = templates::kDatacenterPes;
    std::vector<std::vector<Dataflow>> map;
    std::string topoKind = "mesh";
    std::vector<Link> expressLinks;
    std::vector<int> broadcastMembers;
    bool broadcastAll = false;

    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        ConfigLine line;
        if (!parseLine(raw, number, line))
            continue;
        if (line.keyword == "mcm") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": mcm needs a name");
            name = line.positional.front();
        } else if (line.keyword == "template") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": template needs a name");
            templateName = line.positional.front();
        } else if (line.keyword == "mesh") {
            SCAR_REQUIRE(line.positional.size() == 2, "line ", number,
                         ": mesh needs width and height");
            meshW = line.posNum(0, "mesh width");
            meshH = line.posNum(1, "mesh height");
        } else if (line.keyword == "pes") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": pes needs a count");
            pes = line.posNum(0, "PE count");
            SCAR_REQUIRE(pes > 0, "line ", number,
                         ": PE count must be positive");
        } else if (line.keyword == "topology") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": topology needs a kind (mesh, torus, "
                         "express, broadcast)");
            topoKind = line.positional.front();
            SCAR_REQUIRE(topoKind == "mesh" || topoKind == "torus" ||
                             topoKind == "express" ||
                             topoKind == "broadcast",
                         "line ", number, ": unknown topology kind '",
                         topoKind, "'");
        } else if (line.keyword == "express") {
            SCAR_REQUIRE(line.positional.size() == 2, "line ", number,
                         ": express needs two chiplet ids");
            expressLinks.emplace_back(
                line.posNum(0, "express endpoint"),
                line.posNum(1, "express endpoint"));
        } else if (line.keyword == "broadcast") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": broadcast needs 'all' or member ids");
            if (line.positional.front() == "all") {
                broadcastAll = true;
            } else {
                for (std::size_t i = 0; i < line.positional.size(); ++i)
                    broadcastMembers.push_back(
                        line.posNum(i, "broadcast member"));
            }
        } else if (line.keyword == "map") {
            // Row-major dataflow map; '/' separates mesh rows.
            map.emplace_back();
            for (const std::string& token : line.positional) {
                if (token == "/") {
                    map.emplace_back();
                } else {
                    map.back().push_back(
                        parseDataflow(token, number));
                }
            }
        } else {
            fatal("line ", number, ": unknown MCM keyword '",
                  line.keyword, "'");
        }
    }

    if (!templateName.empty()) {
        using TemplateFn = std::function<Mcm(int)>;
        const std::map<std::string, TemplateFn> catalog = {
            {"simba3x3Nvd",
             [](int p) { return templates::simba3x3(Dataflow::NvdlaWS, p); }},
            {"simba3x3Shi",
             [](int p) { return templates::simba3x3(Dataflow::ShiOS, p); }},
            {"simba6x6Nvd",
             [](int p) { return templates::simba6x6(Dataflow::NvdlaWS, p); }},
            {"simba6x6Shi",
             [](int p) { return templates::simba6x6(Dataflow::ShiOS, p); }},
            {"hetCb3x3", [](int p) { return templates::hetCb3x3(p); }},
            {"hetSides3x3",
             [](int p) { return templates::hetSides3x3(p); }},
            {"hetCross6x6",
             [](int p) { return templates::hetCross6x6(p); }},
            {"hetTriple3x3",
             [](int p) { return templates::hetTriple3x3(p); }},
            {"simbaTriangularNvd",
             [](int p) {
                 return templates::simbaTriangular(Dataflow::NvdlaWS, p);
             }},
            {"simbaTriangularShi",
             [](int p) {
                 return templates::simbaTriangular(Dataflow::ShiOS, p);
             }},
            {"hetTriangular",
             [](int p) { return templates::hetTriangular(p); }},
            {"hetSidesTorus3x3",
             [](int p) { return templates::hetSidesTorus3x3(p); }},
            {"hetSidesExpress3x3",
             [](int p) { return templates::hetSidesExpress3x3(p); }},
            {"hetSidesBroadcast3x3",
             [](int p) { return templates::hetSidesBroadcast3x3(p); }},
        };
        auto it = catalog.find(templateName);
        SCAR_REQUIRE(it != catalog.end(), "unknown MCM template '",
                     templateName, "'");
        return it->second(pes);
    }

    SCAR_REQUIRE(meshW > 0 && meshH > 0,
                 "MCM file needs a 'template' or a 'mesh' line");
    SCAR_REQUIRE(static_cast<int>(map.size()) == meshH,
                 "dataflow map has ", map.size(), " rows, mesh needs ",
                 meshH);
    for (const auto& row : map) {
        SCAR_REQUIRE(static_cast<int>(row.size()) == meshW,
                     "dataflow map row has ", row.size(),
                     " entries, mesh needs ", meshW);
    }

    SCAR_REQUIRE(expressLinks.empty() || topoKind == "express",
                 "'express' lines require 'topology express'");
    SCAR_REQUIRE((broadcastMembers.empty() && !broadcastAll) ||
                     topoKind == "broadcast",
                 "'broadcast' lines require 'topology broadcast'");
    Topology topo = Topology::mesh(meshW, meshH);
    if (topoKind == "torus") {
        topo = Topology::torus(meshW, meshH);
    } else if (topoKind == "express") {
        topo = Topology::expressMesh(meshW, meshH,
                                     std::move(expressLinks));
    } else if (topoKind == "broadcast") {
        if (broadcastAll || broadcastMembers.empty()) {
            broadcastMembers.resize(
                static_cast<std::size_t>(meshW) * meshH);
            for (std::size_t i = 0; i < broadcastMembers.size(); ++i)
                broadcastMembers[i] = static_cast<int>(i);
        }
        topo = Topology::broadcastMesh(meshW, meshH,
                                       std::move(broadcastMembers));
    }
    std::vector<Chiplet> chiplets;
    for (int y = 0; y < meshH; ++y) {
        for (int x = 0; x < meshW; ++x) {
            Chiplet c;
            c.id = y * meshW + x;
            c.x = x;
            c.y = y;
            c.memInterface = (x == 0 || x == meshW - 1);
            c.spec.dataflow = map[y][x];
            c.spec.numPes = pes;
            chiplets.push_back(c);
        }
    }
    return Mcm(name, std::move(chiplets), std::move(topo));
}

Mcm
loadMcm(const std::string& path)
{
    std::ifstream in(path);
    SCAR_REQUIRE(in.good(), "cannot open MCM file: ", path);
    return parseMcm(in);
}

} // namespace io
} // namespace scar
