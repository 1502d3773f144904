#include "arch/mcm_templates.h"

#include <functional>

#include "common/error.h"

namespace scar
{
namespace templates
{

namespace
{

/**
 * Builds a grid MCM over an already-constructed grid topology (mesh,
 * torus, express, or broadcast — anything with meshWidth/meshHeight
 * set) with a per-position dataflow assignment. Chiplet specs and
 * memory-interface placement depend only on the grid coordinates, so
 * interconnect variants of one organization differ in nothing but the
 * topology (the "equal silicon" property bench_comm_fidelity gates).
 */
Mcm
gridMcm(const std::string& name, Topology topo, int numPes,
        const std::function<Dataflow(int x, int y)>& assign)
{
    const int width = topo.meshWidth();
    const int height = topo.meshHeight();
    std::vector<Chiplet> chiplets;
    chiplets.reserve(static_cast<std::size_t>(width) * height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            Chiplet c;
            c.id = y * width + x;
            c.x = x;
            c.y = y;
            c.memInterface = (x == 0 || x == width - 1);
            c.spec.dataflow = assign(x, y);
            c.spec.numPes = numPes;
            chiplets.push_back(c);
        }
    }
    return Mcm(name, std::move(chiplets), std::move(topo));
}

/** Builds a mesh MCM with a per-position dataflow assignment. */
Mcm
meshMcm(const std::string& name, int width, int height, int numPes,
        const std::function<Dataflow(int x, int y)>& assign)
{
    return gridMcm(name, Topology::mesh(width, height), numPes, assign);
}

/** The Het-Sides dataflow assignment (side columns NVDLA, middle Shi). */
Dataflow
hetSidesAssign(int x, int)
{
    return (x == 1) ? Dataflow::ShiOS : Dataflow::NvdlaWS;
}

/** All chiplet ids of a width x height grid, ascending. */
std::vector<int>
allNodes(int width, int height)
{
    std::vector<int> ids(static_cast<std::size_t>(width) * height);
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<int>(i);
    return ids;
}

/** Builds the rows-of-(2,3,4) triangular MCM with per-row dataflows. */
Mcm
triangularMcm(const std::string& name, int numPes,
              const std::function<Dataflow(int row)>& assign)
{
    const int kTopRow = 2;
    const int kNumRows = 3;
    Topology topo = Topology::triangular(kTopRow, kNumRows);
    std::vector<Chiplet> chiplets;
    int id = 0;
    for (int row = 0; row < kNumRows; ++row) {
        const int width = kTopRow + row;
        for (int col = 0; col < width; ++col) {
            Chiplet c;
            c.id = id++;
            c.x = col;
            c.y = row;
            c.memInterface = (col == 0 || col == width - 1);
            c.spec.dataflow = assign(row);
            c.spec.numPes = numPes;
            chiplets.push_back(c);
        }
    }
    return Mcm(name, std::move(chiplets), std::move(topo));
}

} // namespace

Mcm
simbaMesh(int width, int height, Dataflow df, int numPes)
{
    const std::string name = std::string("Simba-") + std::to_string(width) +
                             "x" + std::to_string(height) + "(" +
                             dataflowName(df) + ")";
    return meshMcm(name, width, height, numPes,
                   [df](int, int) { return df; });
}

Mcm
simba3x3(Dataflow df, int numPes)
{
    return meshMcm(std::string("Simba(") + dataflowName(df) + ")", 3, 3,
                   numPes, [df](int, int) { return df; });
}

Mcm
simba6x6(Dataflow df, int numPes)
{
    return meshMcm(std::string("Simba-6(") + dataflowName(df) + ")", 6, 6,
                   numPes, [df](int, int) { return df; });
}

Mcm
hetCb3x3(int numPes)
{
    return meshMcm("Het-CB", 3, 3, numPes, [](int x, int y) {
        return (x + y) % 2 == 0 ? Dataflow::NvdlaWS : Dataflow::ShiOS;
    });
}

Mcm
hetSides3x3(int numPes)
{
    return meshMcm("Het-Sides", 3, 3, numPes, [](int x, int) {
        return (x == 1) ? Dataflow::ShiOS : Dataflow::NvdlaWS;
    });
}

Mcm
hetSidesTorus3x3(int numPes)
{
    return gridMcm("Het-Sides-Torus", Topology::torus(3, 3), numPes,
                   hetSidesAssign);
}

Mcm
hetSidesExpress3x3(int numPes)
{
    // Express links join the two mesh diagonals (0<->8, 2<->6): the
    // longest mesh routes (4 hops) collapse to 1.
    return gridMcm("Het-Sides-Express",
                   Topology::expressMesh(3, 3, {{0, 8}, {2, 6}}),
                   numPes, hetSidesAssign);
}

Mcm
hetSidesBroadcast3x3(int numPes)
{
    return gridMcm("Het-Sides-Bcast",
                   Topology::broadcastMesh(3, 3, allNodes(3, 3)),
                   numPes, hetSidesAssign);
}

Mcm
hetCross6x6(int numPes)
{
    return meshMcm("Het-Cross", 6, 6, numPes, [](int x, int y) {
        const bool onCross = (x == 2 || x == 3 || y == 2 || y == 3);
        return onCross ? Dataflow::NvdlaWS : Dataflow::ShiOS;
    });
}

Mcm
simbaTriangular(Dataflow df, int numPes)
{
    return triangularMcm(std::string("Simba-T(") + dataflowName(df) + ")",
                         numPes, [df](int) { return df; });
}

Mcm
hetTriangular(int numPes)
{
    return triangularMcm("Het-T", numPes, [](int row) {
        return row % 2 == 0 ? Dataflow::NvdlaWS : Dataflow::ShiOS;
    });
}

Mcm
hetTriple3x3(int numPes)
{
    return meshMcm("Het-Tri", 3, 3, numPes, [](int x, int) {
        switch (x) {
          case 0:  return Dataflow::NvdlaWS;
          case 1:  return Dataflow::EyerissRS;
          default: return Dataflow::ShiOS;
        }
    });
}

Mcm
motivational2x2(int numPes)
{
    // Figure 2: chiplets 1,2,4 NVDLA-like, chiplet 3 Shi-diannao-like.
    return meshMcm("Mot-2x2", 2, 2, numPes, [](int x, int y) {
        return (x == 0 && y == 1) ? Dataflow::ShiOS : Dataflow::NvdlaWS;
    });
}

} // namespace templates
} // namespace scar
