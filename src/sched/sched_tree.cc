#include "sched/sched_tree.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace scar
{

namespace
{

/**
 * The constrained DFS of one (topology, blocked mask): the visited
 * mask and path are restored after every root, so one walker serves
 * every root of an enumeratePathsAllRoots call.
 *
 * Before it expands a node with `remaining` nodes still to place, the
 * walk checks that at least remaining - 1 unvisited nodes are
 * reachable from it through unvisited nodes. Every completion of the
 * path lies in that set, so the check only cuts subtrees that yield
 * no path: the output is that of the plain DFS, path for path and in
 * order, without its exponential dead-end search on long paths. A
 * node entered as its parent's only unvisited neighbour inherits the
 * parent's check instead of flooding again.
 */
class PathWalker
{
  public:
    PathWalker(const Topology& topo, const std::vector<bool>& blocked)
        : topo_(topo), visited_(blocked.begin(), blocked.end()),
          stamp_(blocked.size(), 0)
    {
    }

    /** Appends up to maxPaths paths of `length` nodes from `root`. */
    void
    walk(int root, int length, int maxPaths,
         std::vector<std::vector<int>>& out)
    {
        out_ = &out;
        base_ = out.size();
        maxPaths_ = maxPaths;
        dfs(root, length, false);
    }

  private:
    /**
     * @param reachKnown the check is known to pass without a flood:
     *        the parent passed it and `node` was its only unvisited
     *        neighbour. The parent reached at least `remaining`
     *        nodes, all of them through `node`, so `node` reaches
     *        every one of them but itself: at least remaining - 1.
     */
    void
    dfs(int node, int remaining, bool reachKnown)
    {
        if (static_cast<int>(out_->size() - base_) >= maxPaths_)
            return;
        path_.push_back(node);
        visited_[node] = true;
        if (remaining == 1) {
            out_->push_back(path_);
        } else if (remaining == 2 || reachKnown ||
                   reaches(node, remaining - 1)) {
            int open = 0;
            for (int next : topo_.neighbors(node))
                open += visited_[next] ? 0 : 1;
            for (int next : topo_.neighbors(node)) {
                if (!visited_[next])
                    dfs(next, remaining - 1, open == 1);
            }
        }
        visited_[node] = false;
        path_.pop_back();
    }

    /**
     * True when at least `need` unvisited nodes are reachable from
     * `from` through unvisited nodes: a flood fill that stops as
     * soon as it has found them.
     */
    bool
    reaches(int from, int need)
    {
        ++epoch_;
        stack_.clear();
        stack_.push_back(from);
        stamp_[from] = epoch_;
        int found = 0;
        while (!stack_.empty()) {
            const int node = stack_.back();
            stack_.pop_back();
            for (int next : topo_.neighbors(node)) {
                if (visited_[next] || stamp_[next] == epoch_)
                    continue;
                if (++found >= need)
                    return true;
                stamp_[next] = epoch_;
                stack_.push_back(next);
            }
        }
        return false;
    }

    const Topology& topo_;
    std::vector<char> visited_; ///< blocked or on the current path
    std::vector<int> path_;
    std::vector<std::uint64_t> stamp_; ///< flood-fill marks, by epoch
    std::uint64_t epoch_ = 0;
    std::vector<int> stack_;           ///< flood-fill frontier
    std::vector<std::vector<int>>* out_ = nullptr;
    std::size_t base_ = 0;     ///< out_->size() when the root started
    int maxPaths_ = 0;         ///< paths wanted from this root
};

} // namespace

std::vector<std::vector<int>>
enumeratePaths(const Topology& topo, int root, int length,
               const std::vector<bool>& blocked, int maxPaths)
{
    SCAR_REQUIRE(length >= 1, "path length must be >= 1");
    SCAR_REQUIRE(static_cast<int>(blocked.size()) == topo.numNodes(),
                 "blocked mask arity mismatch");
    std::vector<std::vector<int>> out;
    if (blocked[root])
        return out;
    PathWalker(topo, blocked).walk(root, length, maxPaths, out);
    return out;
}

std::vector<std::vector<int>>
enumeratePathsAllRoots(const Topology& topo, int length,
                       const std::vector<bool>& blocked, int maxTotal)
{
    SCAR_REQUIRE(static_cast<int>(blocked.size()) == topo.numNodes(),
                 "blocked mask arity mismatch");
    std::vector<int> roots;
    for (int n = 0; n < topo.numNodes(); ++n) {
        if (!blocked[n])
            roots.push_back(n);
    }
    std::vector<std::vector<int>> out;
    if (roots.empty())
        return out;
    SCAR_REQUIRE(length >= 1, "path length must be >= 1");
    const int perRoot =
        std::max(1, maxTotal / static_cast<int>(roots.size()));
    PathWalker walker(topo, blocked);
    for (int root : roots) {
        if (static_cast<int>(out.size()) >= maxTotal)
            break;
        const int budget = std::min(
            perRoot, maxTotal - static_cast<int>(out.size()));
        walker.walk(root, length, budget, out);
    }
    return out;
}

std::shared_ptr<const PathCache::PathList>
PathCache::get(const Topology& topo, int length,
               const std::vector<bool>& blocked, int maxTotal)
{
    if (topo.numNodes() > 64) {
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::pathMisses);
        return std::make_shared<const PathList>(
            enumeratePathsAllRoots(topo, length, blocked, maxTotal));
    }

    Key key;
    key.length = length;
    for (int n = 0; n < topo.numNodes(); ++n) {
        if (blocked[n])
            key.blockedMask |= std::uint64_t{1} << n;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        SCAR_ASSERT(topo_ == nullptr || topo_ == &topo,
                    "PathCache shared across different topologies");
        SCAR_ASSERT(maxTotal_ < 0 || maxTotal_ == maxTotal,
                    "PathCache shared across different maxTotal caps");
        topo_ = &topo;
        maxTotal_ = maxTotal;
        if (const auto* cached = map_.find(key)) {
            obs::SearchCounters::bump(counters_,
                                      &obs::SearchCounters::pathHits);
            return *cached;
        }
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::pathMisses);
    }

    // Enumerate outside the lock: concurrent misses on one key then
    // race benign duplicates (identical values), and insert() keeps
    // the first.
    auto paths = std::make_shared<const PathList>(
        enumeratePathsAllRoots(topo, length, blocked, maxTotal));
    std::lock_guard<std::mutex> lock(mu_);
    return map_.insert(key, std::move(paths));
}

} // namespace scar
