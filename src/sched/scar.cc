#include "sched/scar.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/units.h"
#include "sched/evolutionary.h"

namespace scar
{

namespace
{

/** Stream tag separating the candidate-cloud RNG from window seeds. */
constexpr std::uint64_t kCloudStream = 0xC10DuLL;

} // namespace

std::vector<WindowBoundary>
windowBoundaries(const ScheduleResult& result)
{
    std::vector<WindowBoundary> boundaries;
    boundaries.reserve(result.windows.size());
    double cumulative = 0.0;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
        const ScheduledWindow& sw = result.windows[w];
        WindowBoundary boundary;
        boundary.windowIdx = static_cast<int>(w);
        boundary.windowCycles = sw.cost.latencyCycles;
        boundary.startCycles = cumulative;
        cumulative += sw.cost.latencyCycles;
        boundary.endCycles = cumulative;
        for (const ModelPlacement& mp : sw.placement.models)
            boundary.segments += static_cast<int>(mp.segments.size());
        boundary.last = w + 1 == result.windows.size();
        boundaries.push_back(boundary);
    }
    return boundaries;
}

Scar::Scar(Scenario scenario, Mcm mcm, ScarOptions options)
    : scenario_(std::move(scenario)), mcm_(std::move(mcm)),
      options_(options), db_(scenario_, mcm_)
{
    SCAR_REQUIRE(scenario_.numModels() >= 1, "scenario has no models");
    SCAR_REQUIRE(options_.nsplits >= 0, "nsplits must be >= 0");
    SCAR_REQUIRE(options_.threads == 0 || options_.threads == 1,
                 "threads must be 0 (global pool) or 1 (serial), not ",
                 options_.threads, "; pass a ThreadPool as pool instead");
    if (options_.pool != nullptr)
        pool_ = options_.pool;
    else if (options_.threads == 0)
        pool_ = &ThreadPool::global();
}

ScheduleResult
Scar::run()
{
    // Profiling scaffolding: a profiled run attaches live counters to
    // the cost database and times each phase on the wall clock. The
    // default path only tests `prof` — never touches the clock — so
    // unprofiled solves stay free of observability work.
    using Clock = std::chrono::steady_clock;
    obs::SolveProfile* const prof = options_.profile;
    obs::SearchCounters counters;
    const auto sinceMs = [](Clock::time_point from) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         from)
            .count();
    };
    Clock::time_point runStart{};
    Clock::time_point phaseStart{};
    double packMs = 0.0;
    double provisionMs = 0.0;
    double rankMs = 0.0;
    double searchMs = 0.0;
    std::int64_t allocationsSearched = 0;
    if (prof) {
        runStart = Clock::now();
        phaseStart = runStart;
        runCounters_ = &counters;
        db_.setCounters(&counters);
    }

    const WindowPlan plan =
        packLayers(db_, options_.nsplits, options_.packing);
    if (prof)
        packMs = sinceMs(phaseStart);
    inform("SCAR: ", scenario_.name, " on ", mcm_.name(), ": ",
           plan.windows.size(), " windows, target ",
           optTargetName(options_.target));

    // PROV and SEG's Heuristic-1 ranking read no placement, so every
    // window is provisioned up front and its ranking jobs run in the
    // background while the walk below places earlier windows.
    const std::size_t numWindows = plan.windows.size();
    if (prof)
        phaseStart = Clock::now();
    std::vector<std::vector<NodeAllocation>> allocations(numWindows);
    for (std::size_t w = 0; w < numWindows; ++w) {
        allocations[w] = provisionNodes(plan.windows[w], db_,
                                        options_.target, options_.prov);
        allocationsSearched +=
            static_cast<std::int64_t>(allocations[w].size());
    }
    if (prof)
        provisionMs = sinceMs(phaseStart);

    const WindowSearchOptions wopts{options_.eval, pool_, runCounters_};
    const WindowScheduler scheduler(db_, options_.target, wopts);
    std::optional<EvolutionaryWindowSearch> evo;
    if (options_.mode == SearchMode::Evolutionary)
        evo.emplace(db_, options_.target, wopts);
    // Every (window, allocation) search has its own seed stream.
    const auto allocationSeed = [&](std::size_t w, std::size_t a) {
        return mixSeed(mixSeed(options_.seed,
                               static_cast<std::uint64_t>(w)),
                       static_cast<std::uint64_t>(a));
    };

    // Brute force ranks one job per (window, allocation, model), each
    // on its own stream; the EA's seed genome shares one stream across
    // its models, so it is one job per (window, allocation). Jobs are
    // listed window by window: jobsEnd[w] ends window w's.
    struct RankJob
    {
        std::size_t window;
        std::size_t alloc;
        std::size_t slot; ///< present-model index (brute force)
    };
    std::vector<RankJob> jobs;
    std::vector<std::size_t> jobsEnd(numWindows);
    std::vector<std::vector<int>> present(numWindows);
    std::vector<std::vector<WindowScheduler::Ranking>> rankings(
        numWindows);
    std::vector<std::vector<EvolutionaryWindowSearch::Genome>> genomes(
        numWindows);
    for (std::size_t w = 0; w < numWindows; ++w) {
        present[w] = WindowScheduler::presentModels(plan.windows[w]);
        const std::size_t numAllocs = allocations[w].size();
        const std::size_t slots = evo ? 1 : present[w].size();
        if (evo)
            genomes[w].resize(numAllocs);
        else
            rankings[w].assign(numAllocs,
                               WindowScheduler::Ranking(slots));
        for (std::size_t a = 0; a < numAllocs; ++a) {
            for (std::size_t i = 0; i < slots; ++i)
                jobs.push_back({w, a, i});
        }
        jobsEnd[w] = jobs.size();
    }
    // Pool helpers and the walk claim the jobs in order from one
    // counter. The walk searches window w as soon as window w's jobs
    // are done, running any it finds unclaimed itself: it never waits
    // on a helper still queued, which could be behind this very solve
    // when it runs as a pool task. Declared after everything the jobs
    // read or write, so on a throw its destructor drains them before
    // any of that is destroyed.
    IndexStream ranking(pool_, jobs.size(), [&](std::size_t j) {
        const RankJob& job = jobs[j];
        const WindowAssignment& wa = plan.windows[job.window];
        const NodeAllocation& nodes = allocations[job.window][job.alloc];
        if (evo) {
            genomes[job.window][job.alloc] = evo->seedGenome(wa, nodes);
        } else {
            rankings[job.window][job.alloc][job.slot] =
                scheduler.rankModel(wa, nodes,
                                    allocationSeed(job.window, job.alloc),
                                    present[job.window][job.slot]);
        }
    });

    // One path memo serves every search of this solve: its values are
    // pure functions of (length, occupancy) on this topology and cap.
    PathCache pathCache;
    pathCache.setCounters(runCounters_);

    ScheduleResult result;
    std::vector<std::vector<ScoredPlacement>> windowTops;
    // Where each model's live data sits as windows progress (-1 = DRAM).
    std::vector<int> entry(scenario_.numModels(), -1);

    // Windows place serially — each window's entry chiplets depend on
    // the previous window's best placement — and each (window,
    // allocation) search parallelizes internally.
    const auto placeWindow = [&](std::size_t w) {
        const WindowAssignment& wa = plan.windows[w];
        std::vector<ScoredPlacement> mergedTop;
        for (std::size_t a = 0; a < allocations[w].size(); ++a) {
            auto found =
                evo ? evo->search(wa, allocations[w][a], genomes[w][a],
                                  allocationSeed(w, a), entry, &pathCache)
                    : scheduler.search(wa, rankings[w][a], entry,
                                       &pathCache);
            mergedTop.insert(mergedTop.end(),
                             std::make_move_iterator(found.top.begin()),
                             std::make_move_iterator(found.top.end()));
        }
        SCAR_REQUIRE(!mergedTop.empty(),
                     "no feasible placement found for a window of ",
                     scenario_.name, " on ", mcm_.name());
        // The window's best placement is the merged list's front: the
        // first allocation's best among those of the lowest score.
        keepTop(mergedTop);
        const ScoredPlacement& best = mergedTop.front();

        ScheduledWindow sw;
        sw.assignment = wa;
        sw.nodes.assign(scenario_.numModels(), 0);
        for (const ModelPlacement& mp : best.placement.models) {
            sw.nodes[mp.modelIdx] =
                static_cast<int>(mp.segments.size());
            // The model's live data now resides on its tail chiplet.
            entry[mp.modelIdx] = mp.segments.back().chiplet;
        }
        sw.placement = best.placement;
        sw.cost = best.cost;
        result.windows.push_back(std::move(sw));
        windowTops.push_back(std::move(mergedTop));
    };
    try {
        for (std::size_t w = 0; w < numWindows; ++w) {
            if (!prof) {
                ranking.waitThrough(jobsEnd[w]);
                placeWindow(w);
                continue;
            }
            const Clock::time_point windowStart = Clock::now();
            ranking.waitThrough(jobsEnd[w]);
            rankMs += sinceMs(windowStart);
            placeWindow(w);
            searchMs += sinceMs(windowStart);
        }
    } catch (...) {
        // A failed ranking job is reported before any walk error, at
        // every pool size, as if every job had run before the walk.
        ranking.waitThrough(jobs.size());
        throw;
    }

    // End-to-end totals: windows execute back to back (Section III-E).
    double cycles = 0.0;
    double energyNj = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        cycles += sw.cost.latencyCycles;
        energyNj += sw.cost.energyNj;
    }
    result.metrics =
        Metrics{cyclesToSeconds(cycles), njToJoules(energyNj)};

    // Scenario-level candidate cloud for Pareto plots: the i-th ranked
    // placement of each window combined, plus random cross picks from
    // a dedicated stream (independent of how much entropy the window
    // searches consumed).
    Rng cloudRng(mixSeed(options_.seed, kCloudStream));
    std::size_t maxRank = 0;
    for (const auto& top : windowTops)
        maxRank = std::max(maxRank, top.size());
    auto combine = [&](const std::vector<std::size_t>& pick) {
        double c = 0.0;
        double e = 0.0;
        for (std::size_t w = 0; w < windowTops.size(); ++w) {
            const auto& top = windowTops[w];
            const std::size_t idx = std::min(pick[w], top.size() - 1);
            c += top[idx].cost.latencyCycles;
            e += top[idx].cost.energyNj;
        }
        result.candidates.push_back(
            Metrics{cyclesToSeconds(c), njToJoules(e)});
    };
    for (std::size_t rank = 0; rank < maxRank; ++rank)
        combine(std::vector<std::size_t>(windowTops.size(), rank));
    for (int i = 0; i < 48; ++i) {
        std::vector<std::size_t> pick(windowTops.size());
        for (std::size_t w = 0; w < pick.size(); ++w)
            pick[w] = cloudRng.index(std::max<std::size_t>(
                windowTops[w].size(), 1));
        combine(pick);
    }

    if (options_.customScore) {
        // Custom metric consumers rank the candidate cloud themselves;
        // report the best candidate under the custom score as totals.
        const Metrics best = *std::min_element(
            result.candidates.begin(), result.candidates.end(),
            [&](const Metrics& a, const Metrics& b) {
                return options_.customScore(a) < options_.customScore(b);
            });
        if (options_.customScore(best) <
            options_.customScore(result.metrics)) {
            result.metrics = best;
        }
    }

    if (prof) {
        db_.setCounters(nullptr);
        runCounters_ = nullptr;
        prof->enabled = true;
        prof->totalMs = sinceMs(runStart);
        prof->packMs = packMs;
        prof->provisionMs = provisionMs;
        prof->searchMs = searchMs;
        prof->rankMs = rankMs;
        prof->windows = static_cast<std::int64_t>(result.windows.size());
        prof->allocationsSearched = allocationsSearched;
        prof->captureCounters(counters);
        prof->costDbTableHits = db_.tableStats().hits;
        prof->costDbTableMisses = db_.tableStats().misses;
    }
    return result;
}

} // namespace scar
