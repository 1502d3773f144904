/**
 * @file
 * Tests for scheduling-tree path enumeration (constrained DFS over the
 * chiplet adjacency, Section IV-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "arch/mcm_templates.h"
#include "common/rng.h"
#include "sched/sched_tree.h"

namespace scar
{
namespace
{

// The unpruned constrained DFS the enumeration used before it bounded
// dead ends, kept verbatim as the oracle: the bounded walk must return
// exactly its paths, in its order.
namespace reference
{

void
dfs(const Topology& topo, int node, int remaining,
    std::vector<bool>& visited, std::vector<int>& path, int maxPaths,
    std::vector<std::vector<int>>& out)
{
    if (static_cast<int>(out.size()) >= maxPaths)
        return;
    path.push_back(node);
    visited[node] = true;
    if (remaining == 1) {
        out.push_back(path);
    } else {
        for (int next : topo.neighbors(node)) {
            if (!visited[next])
                dfs(topo, next, remaining - 1, visited, path, maxPaths,
                    out);
        }
    }
    visited[node] = false;
    path.pop_back();
}

std::vector<std::vector<int>>
enumeratePaths(const Topology& topo, int root, int length,
               const std::vector<bool>& blocked, int maxPaths)
{
    std::vector<std::vector<int>> out;
    if (blocked[root])
        return out;
    std::vector<bool> visited = blocked;
    std::vector<int> path;
    dfs(topo, root, length, visited, path, maxPaths, out);
    return out;
}

std::vector<std::vector<int>>
enumeratePathsAllRoots(const Topology& topo, int length,
                       const std::vector<bool>& blocked, int maxTotal)
{
    std::vector<int> roots;
    for (int n = 0; n < topo.numNodes(); ++n) {
        if (!blocked[n])
            roots.push_back(n);
    }
    std::vector<std::vector<int>> out;
    if (roots.empty())
        return out;
    const int perRoot =
        std::max(1, maxTotal / static_cast<int>(roots.size()));
    for (int root : roots) {
        if (static_cast<int>(out.size()) >= maxTotal)
            break;
        const int budget = std::min(
            perRoot, maxTotal - static_cast<int>(out.size()));
        auto paths = reference::enumeratePaths(topo, root, length,
                                               blocked, budget);
        out.insert(out.end(), paths.begin(), paths.end());
    }
    return out;
}

} // namespace reference

/**
 * Differential check of both enumeration entry points against the
 * reference on every length 1..N and caps {1, 2, 96}, from the empty
 * package and from seeded random occupancies of rising density.
 * enumeratePaths is checked from every root of packages up to 3x3
 * and from four seeded roots of larger ones (enumeratePathsAllRoots
 * already walks every root).
 */
void
expectMatchesReference(const std::string& name, const Topology& topo)
{
    const int n = topo.numNodes();
    std::vector<std::vector<bool>> masks{std::vector<bool>(n, false)};
    Rng rng(mixSeed(0x7EEuLL, static_cast<std::uint64_t>(n)));
    std::vector<int> roots;
    for (int root = 0; root < n; ++root)
        roots.push_back(root);
    if (n > 9) {
        for (std::size_t i = 0; i < 4; ++i)
            std::swap(roots[i], roots[i + rng.index(roots.size() - i)]);
        roots.resize(4);
    }
    for (double density : {0.1, 0.25, 0.4}) {
        std::vector<bool> blocked(n);
        for (int node = 0; node < n; ++node)
            blocked[node] = rng.chance(density);
        masks.push_back(std::move(blocked));
    }
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
        const std::vector<bool>& blocked = masks[mi];
        for (int length = 1; length <= n; ++length) {
            for (int cap : {1, 2, 96}) {
                SCOPED_TRACE(name + ": mask " + std::to_string(mi) +
                             ", length " + std::to_string(length) +
                             ", cap " + std::to_string(cap));
                ASSERT_EQ(scar::enumeratePathsAllRoots(topo, length,
                                                       blocked, cap),
                          reference::enumeratePathsAllRoots(
                              topo, length, blocked, cap));
                for (int root : roots) {
                    ASSERT_EQ(scar::enumeratePaths(topo, root, length,
                                                   blocked, cap),
                              reference::enumeratePaths(
                                  topo, root, length, blocked, cap))
                        << "root " << root;
                }
            }
        }
    }
}

TEST(SchedTree, LengthOnePathsAreRoots)
{
    const Topology topo = Topology::mesh(3, 3);
    const std::vector<bool> blocked(9, false);
    const auto paths = enumeratePaths(topo, 4, 1, blocked, 100);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], std::vector<int>{4});
}

TEST(SchedTree, PathsAreSimpleAndAdjacent)
{
    const Topology topo = Topology::mesh(3, 3);
    const std::vector<bool> blocked(9, false);
    const auto paths = enumeratePaths(topo, 0, 4, blocked, 10000);
    EXPECT_FALSE(paths.empty());
    for (const auto& path : paths) {
        ASSERT_EQ(path.size(), 4u);
        std::set<int> unique(path.begin(), path.end());
        EXPECT_EQ(unique.size(), path.size()); // simple path
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const auto& nbrs = topo.neighbors(path[i]);
            EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), path[i + 1]),
                      nbrs.end());
        }
    }
}

TEST(SchedTree, BlockedNodesAreAvoided)
{
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> blocked(9, false);
    blocked[1] = blocked[3] = true;
    const auto paths = enumeratePaths(topo, 0, 2, blocked, 100);
    EXPECT_TRUE(paths.empty()); // 0's only neighbours are blocked
}

TEST(SchedTree, BlockedRootYieldsNothing)
{
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> blocked(9, false);
    blocked[4] = true;
    EXPECT_TRUE(enumeratePaths(topo, 4, 2, blocked, 100).empty());
}

TEST(SchedTree, MaxPathsCapIsRespected)
{
    const Topology topo = Topology::mesh(3, 3);
    const std::vector<bool> blocked(9, false);
    const auto paths = enumeratePaths(topo, 4, 5, blocked, 7);
    EXPECT_EQ(paths.size(), 7u);
}

TEST(SchedTree, KnownCountOnSmallMesh)
{
    // 2x2 mesh, paths of length 2 from node 0: exactly 2 (right, down).
    const Topology topo = Topology::mesh(2, 2);
    const std::vector<bool> blocked(4, false);
    EXPECT_EQ(enumeratePaths(topo, 0, 2, blocked, 100).size(), 2u);
    // Length 4 (Hamiltonian) from a corner of a 2x2: 2 paths.
    EXPECT_EQ(enumeratePaths(topo, 0, 4, blocked, 100).size(), 2u);
}

TEST(SchedTree, AllRootsCoversEveryFreeChiplet)
{
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> blocked(9, false);
    blocked[8] = true;
    const auto paths = enumeratePathsAllRoots(topo, 1, blocked, 100);
    // Every unblocked node appears exactly once as a length-1 path.
    EXPECT_EQ(paths.size(), 8u);
    std::set<int> roots;
    for (const auto& p : paths)
        roots.insert(p[0]);
    EXPECT_EQ(roots.size(), 8u);
    EXPECT_EQ(roots.count(8), 0u);
}

TEST(SchedTree, AllRootsSplitsBudget)
{
    const Topology topo = Topology::mesh(3, 3);
    const std::vector<bool> blocked(9, false);
    const auto paths = enumeratePathsAllRoots(topo, 3, blocked, 18);
    EXPECT_LE(paths.size(), 18u);
    // Multiple roots represented (budget split, 2 per root).
    std::set<int> roots;
    for (const auto& p : paths)
        roots.insert(p[0]);
    EXPECT_GT(roots.size(), 4u);
}

TEST(SchedTree, TriangularTopologyWorks)
{
    const Topology topo = Topology::triangular(2, 3);
    const std::vector<bool> blocked(topo.numNodes(), false);
    const auto paths = enumeratePathsAllRoots(topo, 4, blocked, 50);
    EXPECT_FALSE(paths.empty());
    for (const auto& path : paths)
        EXPECT_EQ(path.size(), 4u);
}

TEST(SchedTreeOracle, BoundedDfsMatchesReferenceOnMeshes)
{
    expectMatchesReference("mesh 3x3", Topology::mesh(3, 3));
    expectMatchesReference("mesh 6x6", Topology::mesh(6, 6));
}

TEST(SchedTreeOracle, BoundedDfsMatchesReferenceOnPackageTopologies)
{
    expectMatchesReference("torus",
                           templates::hetSidesTorus3x3().topology());
    expectMatchesReference("express",
                           templates::hetSidesExpress3x3().topology());
    expectMatchesReference("broadcast",
                           templates::hetSidesBroadcast3x3().topology());
    expectMatchesReference("triangular",
                           templates::hetTriangular().topology());
    expectMatchesReference("het-cross 6x6",
                           templates::hetCross6x6().topology());
}

} // namespace
} // namespace scar
