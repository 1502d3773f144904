/**
 * @file
 * Tests for the SCHED engine and the evolutionary SEG driver:
 * feasibility, exclusivity, score ordering, determinism, and
 * pool-size independence of the parallel combo fan-out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/thread_pool.h"
#include "eval/scenario_suite.h"
#include "io/config.h"
#include "obs/solve_profile.h"
#include "sched/evolutionary.h"
#include "sched/greedy_packing.h"
#include "sched/sched_engine.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace
{

class SchedEngineTest : public ::testing::Test
{
  protected:
    SchedEngineTest()
        : mcm_(templates::hetSides3x3())
    {
        sc_.name = "sched";
        sc_.models = {zoo::eyeCod(8), zoo::bertBase(2)};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
        wa_.perModel = {
            LayerRange{0, sc_.models[0].numLayers() - 1},
            LayerRange{0, 11},
        };
        nodes_ = {3, 3};
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
    WindowAssignment wa_;
    NodeAllocation nodes_;
};

TEST_F(SchedEngineTest, FindsFeasiblePlacement)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    EXPECT_EQ(result.best().placement.models.size(), 2u);
    EXPECT_GT(result.best().cost.latencyCycles, 0.0);
    EXPECT_GT(result.best().cost.energyNj, 0.0);
}

TEST_F(SchedEngineTest, PlacementRespectsExclusivity)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    std::set<int> used;
    for (const ModelPlacement& mp : result.best().placement.models) {
        for (const PlacedSegment& seg : mp.segments)
            EXPECT_TRUE(used.insert(seg.chiplet).second)
                << "chiplet reused: " << seg.chiplet;
    }
}

TEST_F(SchedEngineTest, SegmentsRespectNodeAllocation)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    for (const ModelPlacement& mp : result.best().placement.models) {
        EXPECT_LE(static_cast<int>(mp.segments.size()),
                  nodes_[mp.modelIdx]);
    }
}

TEST_F(SchedEngineTest, SegmentsOnAdjacentChiplets)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    for (const ModelPlacement& mp : result.best().placement.models) {
        for (std::size_t k = 0; k + 1 < mp.segments.size(); ++k) {
            EXPECT_EQ(mcm_.topology().hops(mp.segments[k].chiplet,
                                           mp.segments[k + 1].chiplet),
                      1);
        }
    }
}

TEST_F(SchedEngineTest, TopListIsSortedByScore)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    EXPECT_GE(result.top.size(), 2u);
    for (std::size_t i = 0; i + 1 < result.top.size(); ++i)
        EXPECT_LE(result.top[i].score, result.top[i + 1].score);
}

TEST_F(SchedEngineTest, DeterministicForFixedSeed)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto a = sched.search(wa_, nodes_, 42);
    const auto b = sched.search(wa_, nodes_, 42);
    ASSERT_TRUE(a.found() && b.found());
    EXPECT_DOUBLE_EQ(a.best().score, b.best().score);
}

/** Exact (bitwise for doubles) equality of two window placements. */
void
expectSamePlacement(const ScoredPlacement& got, const ScoredPlacement& want)
{
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.cost.latencyCycles, want.cost.latencyCycles);
    EXPECT_EQ(got.cost.energyNj, want.cost.energyNj);
    EXPECT_EQ(got.cost.dramBytes, want.cost.dramBytes);
    EXPECT_EQ(got.cost.dramBoundCycles, want.cost.dramBoundCycles);
    EXPECT_EQ(got.cost.maxLinkSharers, want.cost.maxLinkSharers);
    EXPECT_EQ(got.cost.maxQueueFactor, want.cost.maxQueueFactor);
    ASSERT_EQ(got.cost.perModel.size(), want.cost.perModel.size());
    for (std::size_t m = 0; m < got.cost.perModel.size(); ++m) {
        EXPECT_EQ(got.cost.perModel[m].latencyCycles,
                  want.cost.perModel[m].latencyCycles);
        EXPECT_EQ(got.cost.perModel[m].energyNj,
                  want.cost.perModel[m].energyNj);
    }
    EXPECT_EQ(got.placement.entryChiplet, want.placement.entryChiplet);
    ASSERT_EQ(got.placement.models.size(), want.placement.models.size());
    for (std::size_t m = 0; m < got.placement.models.size(); ++m) {
        const ModelPlacement& g = got.placement.models[m];
        const ModelPlacement& w = want.placement.models[m];
        EXPECT_EQ(g.modelIdx, w.modelIdx);
        ASSERT_EQ(g.segments.size(), w.segments.size());
        for (std::size_t k = 0; k < g.segments.size(); ++k) {
            EXPECT_EQ(g.segments[k].chiplet, w.segments[k].chiplet);
            EXPECT_EQ(g.segments[k].range, w.segments[k].range);
        }
    }
}

/** Exact equality of two search results' ranked lists. */
void
expectSameResult(const WindowScheduler::Result& got,
                 const WindowScheduler::Result& want)
{
    ASSERT_EQ(got.top.size(), want.top.size());
    for (std::size_t i = 0; i < got.top.size(); ++i) {
        SCOPED_TRACE("top " + std::to_string(i));
        expectSamePlacement(got.top[i], want.top[i]);
    }
}

/** The tentpole guarantee: the ranked result is byte-identical at any
 *  pool size, including fully serial. */
TEST_F(SchedEngineTest, PoolSizeDoesNotChangeResults)
{
    WindowSearchOptions serialOpts;
    const WindowScheduler serial(*db_, OptTarget::Edp, serialOpts);
    const auto baseline = serial.search(wa_, nodes_, 42);
    ASSERT_TRUE(baseline.found());

    for (int concurrency : {2, 4, 8}) {
        SCOPED_TRACE("concurrency " + std::to_string(concurrency));
        ThreadPool pool(concurrency);
        WindowSearchOptions opts;
        opts.pool = &pool;
        const WindowScheduler parallel(*db_, OptTarget::Edp, opts);
        expectSameResult(parallel.search(wa_, nodes_, 42), baseline);
    }
}

/**
 * Scar::run shares one path memo across every window search of a
 * solve. Its values are pure functions of (length, occupancy) on one
 * topology and cap, so a search on a memo warmed by other windows,
 * allocations and entry chiplets returns exactly what a fresh search
 * does — for the brute-force and the evolutionary search alike.
 */
TEST_F(SchedEngineTest, WarmSharedPathMemoDoesNotChangeResults)
{
    const std::vector<int> entry = {4, -1};
    WindowAssignment shifted;
    shifted.perModel = {
        LayerRange{2, sc_.models[0].numLayers() - 1},
        LayerRange{3, 11},
    };
    const NodeAllocation otherNodes = {2, 4};
    const WindowScheduler brute(*db_, OptTarget::Edp);
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});

    PathCache paths;
    ASSERT_TRUE(brute.search(shifted, otherNodes, 3, {1, 7}, &paths).found());
    ASSERT_TRUE(brute.search(shifted, nodes_, 5, entry, &paths).found());
    ASSERT_TRUE(evo.search(shifted, otherNodes, 6, {0, 8}, &paths).found());

    {
        SCOPED_TRACE("brute force");
        const auto fresh = brute.search(wa_, nodes_, 9, entry);
        ASSERT_TRUE(fresh.found());
        expectSameResult(brute.search(wa_, nodes_, 9, entry, &paths),
                         fresh);
    }
    {
        SCOPED_TRACE("evolutionary");
        const auto fresh = evo.search(wa_, nodes_, 9, entry);
        ASSERT_TRUE(fresh.found());
        expectSameResult(evo.search(wa_, nodes_, 9, entry, &paths), fresh);
    }
}

TEST_F(SchedEngineTest, LatencyTargetPrefersFasterWindows)
{
    const WindowScheduler latSched(*db_, OptTarget::Latency);
    const WindowScheduler nrgSched(*db_, OptTarget::Energy);
    const auto lat = latSched.search(wa_, nodes_, 1);
    const auto nrg = nrgSched.search(wa_, nodes_, 1);
    ASSERT_TRUE(lat.found() && nrg.found());
    // Both searches are heuristic (beam), so allow a small slack.
    EXPECT_LE(lat.best().cost.latencyCycles,
              nrg.best().cost.latencyCycles * 1.05);
    EXPECT_LE(nrg.best().cost.energyNj, lat.best().cost.energyNj * 1.05);
}

TEST_F(SchedEngineTest, SingleNodePerModelStillWorks)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto result = sched.search(wa_, {1, 1}, 1);
    ASSERT_TRUE(result.found());
    for (const ModelPlacement& mp : result.best().placement.models)
        EXPECT_EQ(mp.segments.size(), 1u);
}

TEST_F(SchedEngineTest, EntryChipletInfluencesPlacementCost)
{
    const WindowScheduler sched(*db_, OptTarget::Edp);
    const auto fresh = sched.search(wa_, nodes_, 1, {});
    const auto continued = sched.search(wa_, nodes_, 1, {0, 4});
    ASSERT_TRUE(fresh.found() && continued.found());
    // Continuing from on-package data can only help (less DRAM).
    EXPECT_LE(continued.best().cost.dramBytes,
              fresh.best().cost.dramBytes + 1.0);
}

TEST_F(SchedEngineTest, MoreModelsThanFitFailsGracefully)
{
    // Allocation vector with a zero for a present model throws.
    const WindowScheduler sched(*db_, OptTarget::Edp);
    EXPECT_THROW(sched.search(wa_, {0, 3}, 1), FatalError);
    EXPECT_THROW(sched.rank(wa_, {0, 3}, 1), FatalError);
}

TEST_F(SchedEngineTest, RejectsRankingOfAnotherWindow)
{
    // A precomputed ranking or seed genome must hold one entry per
    // present model of the window it is searched with.
    const WindowScheduler sched(*db_, OptTarget::Edp);
    WindowScheduler::Ranking ranking = sched.rank(wa_, nodes_, 1);
    ranking.pop_back();
    EXPECT_THROW(sched.search(wa_, ranking), FatalError);
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    EvolutionaryWindowSearch::Genome genome = evo.seedGenome(wa_, nodes_);
    genome.pop_back();
    EXPECT_THROW(evo.search(wa_, nodes_, genome, 1), FatalError);
}

TEST_F(SchedEngineTest, EaSeedGenomeIsEachModelsTopRankedSegmentation)
{
    // Each model's genes are its top Heuristic-1 segmentation under
    // the default options, the models drawing in order from one Rng(1).
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const EvolutionaryWindowSearch::Genome genome =
        evo.seedGenome(wa_, nodes_);
    Rng rng(1);
    ASSERT_EQ(genome.size(), wa_.perModel.size());
    for (std::size_t m = 0; m < genome.size(); ++m) {
        const LayerRange& range = wa_.perModel[m];
        const std::vector<Segmentation> ranked = rankSegmentations(
            *db_, static_cast<int>(m), range, nodes_[m], OptTarget::Edp,
            SegmentationOptions{}, rng);
        std::vector<int> splits;
        for (std::size_t k = 0; k + 1 < ranked.front().segments.size();
             ++k)
            splits.push_back(ranked.front().segments[k].last -
                             range.first);
        EXPECT_EQ(genome[m], splits) << "model " << m;
    }
}

TEST(SchedEngineSmallMcm, WorksOnMotivational2x2)
{
    Scenario sc;
    sc.name = "tiny";
    sc.models = {zoo::eyeCod(2)};
    sc.finalize();
    const Mcm mcm = templates::motivational2x2();
    const CostDb db(sc, mcm);
    const WindowScheduler sched(db, OptTarget::Edp);
    WindowAssignment wa;
    wa.perModel = {LayerRange{0, sc.models[0].numLayers() - 1}};
    const auto result = sched.search(wa, {2}, 1);
    ASSERT_TRUE(result.found());
    EXPECT_LE(result.best().placement.models[0].segments.size(), 2u);
}

class EvoTest : public SchedEngineTest
{
};

TEST_F(EvoTest, FindsFeasiblePlacement)
{
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto result = evo.search(wa_, nodes_, 1);
    ASSERT_TRUE(result.found());
    EXPECT_LE(result.top.size(), kMaxTopCandidates);
    std::set<int> used;
    for (const ModelPlacement& mp : result.best().placement.models) {
        EXPECT_LE(static_cast<int>(mp.segments.size()),
                  nodes_[mp.modelIdx]);
        for (const PlacedSegment& seg : mp.segments)
            EXPECT_TRUE(used.insert(seg.chiplet).second);
    }
}

TEST_F(EvoTest, DeterministicForFixedSeed)
{
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto a = evo.search(wa_, nodes_, 7);
    const auto b = evo.search(wa_, nodes_, 7);
    ASSERT_TRUE(a.found() && b.found());
    EXPECT_DOUBLE_EQ(a.best().score, b.best().score);
}

TEST_F(EvoTest, PoolSizeDoesNotChangeResults)
{
    WindowSearchOptions serialOpts;
    const EvolutionaryWindowSearch serial(*db_, OptTarget::Edp,
                                          serialOpts);
    const auto baseline = serial.search(wa_, nodes_, 7);
    ASSERT_TRUE(baseline.found());

    for (int concurrency : {4, 8}) {
        ThreadPool pool(concurrency);
        WindowSearchOptions opts;
        opts.pool = &pool;
        const EvolutionaryWindowSearch parallel(*db_, OptTarget::Edp,
                                                opts);
        const auto result = parallel.search(wa_, nodes_, 7);
        ASSERT_TRUE(result.found());
        EXPECT_EQ(result.best().score, baseline.best().score);
        ASSERT_EQ(result.top.size(), baseline.top.size());
        for (std::size_t i = 0; i < result.top.size(); ++i)
            EXPECT_EQ(result.top[i].score, baseline.top[i].score);
    }
}

TEST_F(EvoTest, SeededGenomeMakesEvoCompetitiveWithBruteForce)
{
    const WindowScheduler brute(*db_, OptTarget::Edp);
    const EvolutionaryWindowSearch evo(*db_, OptTarget::Edp,
                                       WindowSearchOptions{});
    const auto b = brute.search(wa_, nodes_, 1);
    const auto e = evo.search(wa_, nodes_, 1);
    ASSERT_TRUE(b.found() && e.found());
    // The EA population is seeded with the quick-ranked segmentation,
    // so it should come within 2x of the brute-force score.
    EXPECT_LE(e.best().score, b.best().score * 2.0);
}

// ---- Bound-skipped evaluation vs evaluating every placement --------

/**
 * The tail search() ran before it skipped evaluations, kept as the
 * oracle of the skip: every placement of place() fully evaluated,
 * stable-sorted by score and trimmed to kMaxTopCandidates.
 */
namespace reference
{

WindowScheduler::Result
evaluateAll(const WindowScheduler& sched, const WindowEvaluator& eval,
            std::vector<WindowScheduler::BoundedPlacement> placed,
            int& boundViolations)
{
    WindowScheduler::Result result;
    for (WindowScheduler::BoundedPlacement& p : placed) {
        ScoredPlacement scored;
        scored.cost = eval.evaluate(p.placement);
        scored.score = sched.score(scored.cost);
        boundViolations += p.bound <= scored.score ? 0 : 1;
        scored.placement = std::move(p.placement);
        result.top.push_back(std::move(scored));
    }
    std::stable_sort(result.top.begin(), result.top.end(),
                     [](const ScoredPlacement& a,
                        const ScoredPlacement& b) {
                         return a.score < b.score;
                     });
    if (result.top.size() > kMaxTopCandidates)
        result.top.resize(kMaxTopCandidates);
    return result;
}

} // namespace reference

/** One (scenario, package) pair of the oracle matrix. */
struct OracleCase
{
    std::string name;
    Scenario sc;
    Mcm mcm;
};

Scenario
mix(const std::string& name, std::vector<Model> models)
{
    Scenario sc;
    sc.name = name;
    sc.models = std::move(models);
    sc.finalize();
    return sc;
}

/** The Table III suite on Het-Sides 3x3, as Scar solves it. */
std::vector<OracleCase>
paperSuiteCases()
{
    std::vector<OracleCase> cases;
    for (int idx = 1; idx <= 10; ++idx) {
        cases.push_back({"Sc" + std::to_string(idx), suite::byIndex(idx),
                         templates::hetSides3x3(
                             idx <= 5 ? templates::kDatacenterPes
                                      : templates::kArvrPes)});
    }
    return cases;
}

/** The fleet benches' catalogs, each served as one mix. */
std::vector<OracleCase>
fleetCatalogCases()
{
    TransformerConfig chat;
    chat.name = "chat";
    chat.numBlocks = 2;
    chat.dModel = 128;
    chat.dFf = 256;
    return {
        {"arvr catalog",
         mix("arvr", {zoo::eyeCod(8), zoo::handSP(4), zoo::sp2Dense(4),
                      zoo::emformer(2), zoo::hrvit(2), zoo::googleNet(4),
                      zoo::midas(1), zoo::d2go(1)}),
         templates::hetSides3x3(templates::kArvrPes)},
        {"dcxr catalog",
         mix("dcxr",
             {zoo::bertLarge(8), zoo::googleNet(4), zoo::eyeCod(4)}),
         templates::hetSides3x3(templates::kDatacenterPes)},
        {"chat prefill + decode",
         mix("chat", {buildPrefillModel(chat, 64),
                      buildDecodeStepModel(chat, 256), zoo::handSP(4)}),
         templates::hetSides3x3(templates::kArvrPes)},
    };
}

/** Every package under configs/, under the datacenter workload. */
std::vector<OracleCase>
configCases()
{
    const Scenario datacenter =
        io::loadScenario(std::string(SCAR_CONFIG_DIR) +
                     "/workload_datacenter.cfg");
    std::vector<OracleCase> cases;
    for (const char* file :
         {"mcm_broadcast.cfg", "mcm_custom_mesh.cfg", "mcm_express.cfg",
          "mcm_het_sides.cfg", "mcm_torus.cfg"}) {
        cases.push_back(
            {file, datacenter,
             io::loadMcm(std::string(SCAR_CONFIG_DIR) + "/" + file)});
    }
    return cases;
}

/** Every window search of one solve, and the full evaluations run. */
struct WindowWalk
{
    std::vector<WindowScheduler::Result> results;
    std::int64_t windowEvals = 0;
};

/**
 * Walks the windows of one solve as Scar::run does (packing,
 * provisioning, one search per allocation, entry chiplets from the
 * best placement). With `checkReference`, every search is held
 * bitwise to reference::evaluateAll over its place() output, and
 * every placement's bound to its full score.
 */
WindowWalk
walkWindows(const OracleCase& c, OptTarget target,
            const EvaluatorOptions& eval, ThreadPool* pool,
            bool checkReference)
{
    CostDb db(c.sc, c.mcm);
    obs::SearchCounters counters;
    WindowSearchOptions opts;
    opts.eval = eval;
    opts.pool = pool;
    const WindowScheduler sched(db, target, opts);
    const WindowEvaluator full(db, eval);
    const WindowPlan plan = packLayers(db, 4);
    std::vector<int> entry(c.sc.numModels(), -1);
    PathCache paths;
    WindowWalk walk;
    for (std::size_t w = 0; w < plan.windows.size(); ++w) {
        const WindowAssignment& wa = plan.windows[w];
        const auto allocations =
            provisionNodes(wa, db, target, ProvisionerOptions{});
        const WindowScheduler::Result* best = nullptr;
        walk.results.reserve(walk.results.size() + allocations.size());
        for (std::size_t a = 0; a < allocations.size(); ++a) {
            SCOPED_TRACE("window " + std::to_string(w) + ", allocation " +
                         std::to_string(a));
            const auto ranking = sched.rank(wa, allocations[a],
                                            mixSeed(w, a));
            db.setCounters(&counters);
            walk.results.push_back(sched.search(wa, ranking, entry,
                                                &paths));
            db.setCounters(nullptr);
            const WindowScheduler::Result& got = walk.results.back();
            if (checkReference) {
                int violations = 0;
                const auto want = reference::evaluateAll(
                    sched, full, sched.place(wa, ranking, entry, &paths),
                    violations);
                EXPECT_EQ(violations, 0);
                expectSameResult(got, want);
            }
            if (got.found() && (best == nullptr ||
                              got.best().score < best->best().score))
                best = &got;
        }
        if (best == nullptr)
            break;
        for (const ModelPlacement& mp : best->best().placement.models)
            entry[mp.modelIdx] = mp.segments.back().chiplet;
    }
    walk.windowEvals = counters.windowEvals.load();
    return walk;
}

/** Static and Phased fidelity, each with the roofline on and off. */
std::vector<EvaluatorOptions>
evaluatorMatrix()
{
    std::vector<EvaluatorOptions> matrix;
    for (const CommFidelity fidelity :
         {CommFidelity::Static, CommFidelity::Phased}) {
        for (const bool roofline : {true, false}) {
            EvaluatorOptions eval;
            eval.fidelity = fidelity;
            eval.dramRoofline = roofline;
            matrix.push_back(eval);
        }
    }
    return matrix;
}

void
expectCasesMatchReference(const std::vector<OracleCase>& cases,
                          const std::vector<OptTarget>& targets)
{
    for (const OracleCase& c : cases) {
        for (const OptTarget target : targets) {
            for (const EvaluatorOptions& eval : evaluatorMatrix()) {
                SCOPED_TRACE(c.name + ", " + optTargetName(target) +
                             (eval.fidelity == CommFidelity::Phased
                                  ? ", phased"
                                  : ", static") +
                             (eval.dramRoofline ? ", roofline"
                                                : ", no roofline"));
                const WindowWalk walk =
                    walkWindows(c, target, eval, nullptr, true);
                EXPECT_FALSE(walk.results.empty());
            }
        }
    }
}

TEST(WindowSearchOracle, PaperSuiteMatchesEvaluatingEveryPlacement)
{
    expectCasesMatchReference(paperSuiteCases(), {OptTarget::Edp});
}

TEST(WindowSearchOracle, FleetCatalogsMatchEvaluatingEveryPlacement)
{
    expectCasesMatchReference(fleetCatalogCases(),
                              {OptTarget::Edp, OptTarget::Latency});
}

TEST(WindowSearchOracle, ConfigPackagesMatchEvaluatingEveryPlacement)
{
    expectCasesMatchReference(
        configCases(),
        {OptTarget::Edp, OptTarget::Latency, OptTarget::Energy});
}

/**
 * Evaluations run in batches of a fixed size, never the pool's
 * concurrency, so the skipped set — and with it the evaluation count
 * — is the same at every pool size, as are the results.
 */
TEST(WindowSearchOracle, EvaluationsAndResultsArePoolSizeInvariant)
{
    std::vector<OracleCase> cases = paperSuiteCases();
    const std::vector<OracleCase> fleet = fleetCatalogCases();
    cases.insert(cases.end(), fleet.begin(), fleet.end());
    for (const OracleCase& c : cases) {
        SCOPED_TRACE(c.name);
        const WindowWalk serial = walkWindows(
            c, OptTarget::Edp, EvaluatorOptions{}, nullptr, false);
        EXPECT_GT(serial.windowEvals, 0);
        for (const int concurrency : {1, 2, 4, 8}) {
            SCOPED_TRACE("pool size " + std::to_string(concurrency));
            ThreadPool pool(concurrency);
            const WindowWalk walk = walkWindows(
                c, OptTarget::Edp, EvaluatorOptions{}, &pool, false);
            EXPECT_EQ(walk.windowEvals, serial.windowEvals);
            ASSERT_EQ(walk.results.size(), serial.results.size());
            for (std::size_t i = 0; i < walk.results.size(); ++i)
                expectSameResult(walk.results[i], serial.results[i]);
        }
    }
}

// ---- Path memoization (sched_tree.h PathCache) ---------------------

TEST(PathCache, MatchesDirectEnumerationAndMemoizes)
{
    const Topology topo = Topology::mesh(3, 3);
    std::vector<bool> blocked(9, false);
    blocked[4] = true; // knock out the center

    PathCache cache;
    const auto cached = cache.get(topo, 3, blocked, 96);
    const auto direct = enumeratePathsAllRoots(topo, 3, blocked, 96);
    EXPECT_EQ(*cached, direct);

    // A hit returns the very same enumeration (shared storage).
    const auto again = cache.get(topo, 3, blocked, 96);
    EXPECT_EQ(cached.get(), again.get());

    // Different occupancy or length is a different key.
    blocked[4] = false;
    const auto other = cache.get(topo, 3, blocked, 96);
    EXPECT_NE(other.get(), cached.get());
    EXPECT_EQ(*other, enumeratePathsAllRoots(topo, 3, blocked, 96));
    const auto shorter = cache.get(topo, 2, blocked, 96);
    EXPECT_EQ(*shorter, enumeratePathsAllRoots(topo, 2, blocked, 96));
}

} // namespace
} // namespace scar
