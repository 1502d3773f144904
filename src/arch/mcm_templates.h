/**
 * @file
 * The MCM chiplet organizations evaluated in the paper (Figure 6).
 *
 * Homogeneous templates ("Simba") carry one dataflow everywhere.
 * Heterogeneous templates mix NVDLA-like and Shi-diannao-like chiplets:
 *  - Het-CB ("checkerboard"): dataflows alternate per position, so
 *    every NoP neighbour pair is heterogeneous;
 *  - Het-Sides: the two side columns are NVDLA-like, the middle column
 *    Shi-diannao-like — each side column is a vertically adjacent
 *    homogeneous pipeline while column crossings are heterogeneous
 *    (Section V-B: Het-Sides offers both homogeneous and heterogeneous
 *    inter-chiplet pipelining, unlike Het-CB);
 *  - Het-Cross (6x6): the central rows/columns form an NVDLA cross,
 *    the four corner quadrants are Shi-diannao (same property at scale);
 *  - Simba-T / Het-T: triangular NoP variants (rows of 2,3,4 chiplets);
 *    Het-T alternates dataflows per row.
 *
 * Memory interfaces sit on the package sides: the left/right mesh
 * columns, or each row's end nodes for triangular packages.
 */

#ifndef SCAR_ARCH_MCM_TEMPLATES_H
#define SCAR_ARCH_MCM_TEMPLATES_H

#include "arch/mcm.h"

namespace scar
{
namespace templates
{

/** Chiplet PE count for the datacenter setting (paper Section V-A). */
constexpr int kDatacenterPes = 4096;
/** Chiplet PE count for the AR/VR setting. */
constexpr int kArvrPes = 256;

/** Homogeneous width x height mesh of the given dataflow. */
Mcm simbaMesh(int width, int height, Dataflow df, int numPes);

/** 3x3 homogeneous mesh ("Simba (Shi)" / "Simba (NVD)"). */
Mcm simba3x3(Dataflow df, int numPes = kDatacenterPes);

/** 6x6 homogeneous mesh ("Simba-6"). */
Mcm simba6x6(Dataflow df, int numPes = kDatacenterPes);

/** 3x3 checkerboard heterogeneous mesh ("Het-CB"). */
Mcm hetCb3x3(int numPes = kDatacenterPes);

/** 3x3 sides-heterogeneous mesh ("Het-Sides"). */
Mcm hetSides3x3(int numPes = kDatacenterPes);

/** 6x6 cross-heterogeneous mesh ("Het-Cross"). */
Mcm hetCross6x6(int numPes = kDatacenterPes);

// ---- Interconnect variants (equal silicon to hetSides3x3: same
// chiplets, specs, and memory interfaces — only the NoP differs).
// These feed bench_comm_fidelity's fidelity x topology sweep.

/** Het-Sides on a 3x3 torus (wraparound XY routing). */
Mcm hetSidesTorus3x3(int numPes = kDatacenterPes);

/** Het-Sides with express links across the mesh diagonals. */
Mcm hetSidesExpress3x3(int numPes = kDatacenterPes);

/** Het-Sides with a package-wide wireless broadcast plane. */
Mcm hetSidesBroadcast3x3(int numPes = kDatacenterPes);

/** Triangular homogeneous package ("Simba-T"), rows of 2,3,4 chiplets. */
Mcm simbaTriangular(Dataflow df, int numPes = kDatacenterPes);

/** Triangular heterogeneous package ("Het-T"), dataflow alternates per row. */
Mcm hetTriangular(int numPes = kDatacenterPes);

/** 2x2 MCM of the motivational study (3 NVDLA + 1 Shi, Figure 2). */
Mcm motivational2x2(int numPes = kDatacenterPes);

/**
 * Extension template: a 3x3 mesh mixing three dataflow classes — one
 * column each of NVDLA-like, Eyeriss-like row-stationary, and
 * Shi-diannao-like chiplets. Demonstrates the formulation's
 * generality to |DF| > 2 (Eq. 1 averages over any class mix).
 */
Mcm hetTriple3x3(int numPes = kDatacenterPes);

} // namespace templates
} // namespace scar

#endif // SCAR_ARCH_MCM_TEMPLATES_H
