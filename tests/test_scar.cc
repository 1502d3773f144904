/**
 * @file
 * Integration tests for the SCAR facade: full two-level scheduling
 * runs across scenarios, MCM templates, targets, and search modes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "arch/mcm_templates.h"
#include "eval/scenario_suite.h"
#include "common/units.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

Scenario
smallScenario()
{
    Scenario sc;
    sc.name = "small";
    sc.models = {zoo::eyeCod(8), zoo::handSP(4)};
    sc.finalize();
    return sc;
}

/** Checks the Theorem 1+2 validity of a full schedule. */
void
expectValidSchedule(const Scenario& sc, const ScheduleResult& result)
{
    std::vector<int> next(sc.numModels(), 0);
    for (const ScheduledWindow& sw : result.windows) {
        std::set<int> used;
        for (const ModelPlacement& mp : sw.placement.models) {
            for (const PlacedSegment& seg : mp.segments) {
                EXPECT_TRUE(used.insert(seg.chiplet).second);
                EXPECT_EQ(seg.range.first, next[mp.modelIdx]);
                next[mp.modelIdx] = seg.range.last + 1;
            }
        }
    }
    for (int m = 0; m < sc.numModels(); ++m)
        EXPECT_EQ(next[m], sc.models[m].numLayers()) << "model " << m;
}

TEST(Scar, ProducesValidCompleteSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
    EXPECT_GT(result.metrics.latencySec, 0.0);
    EXPECT_GT(result.metrics.energyJ, 0.0);
}

TEST(Scar, MetricsAreWindowSums)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    double cycles = 0.0;
    double energy = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        cycles += sw.cost.latencyCycles;
        energy += sw.cost.energyNj;
    }
    EXPECT_NEAR(result.metrics.latencySec, cyclesToSeconds(cycles),
                1e-12);
    EXPECT_NEAR(result.metrics.energyJ, njToJoules(energy), 1e-12);
    EXPECT_NEAR(result.metrics.edp(),
                result.metrics.latencySec * result.metrics.energyJ,
                1e-15);
}

TEST(Scar, CandidateCloudIsPopulated)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetCb3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    EXPECT_GE(result.candidates.size(), 8u);
    for (const Metrics& m : result.candidates) {
        EXPECT_GT(m.latencySec, 0.0);
        EXPECT_GT(m.energyJ, 0.0);
    }
}

TEST(Scar, DeterministicForFixedSeed)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.seed = 99;
    const Metrics a = Scar(sc, mcm, opts).run().metrics;
    const Metrics b = Scar(sc, mcm, opts).run().metrics;
    EXPECT_DOUBLE_EQ(a.latencySec, b.latencySec);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
}

/** Bitwise equality of two complete schedule results. */
void
expectIdenticalResults(const ScheduleResult& a, const ScheduleResult& b)
{
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        const ScheduledWindow& wa = a.windows[w];
        const ScheduledWindow& wb = b.windows[w];
        EXPECT_EQ(wa.cost.latencyCycles, wb.cost.latencyCycles);
        EXPECT_EQ(wa.cost.energyNj, wb.cost.energyNj);
        EXPECT_EQ(wa.nodes, wb.nodes);
        ASSERT_EQ(wa.placement.models.size(),
                  wb.placement.models.size());
        for (std::size_t m = 0; m < wa.placement.models.size(); ++m) {
            const ModelPlacement& ma = wa.placement.models[m];
            const ModelPlacement& mb = wb.placement.models[m];
            EXPECT_EQ(ma.modelIdx, mb.modelIdx);
            ASSERT_EQ(ma.segments.size(), mb.segments.size());
            for (std::size_t k = 0; k < ma.segments.size(); ++k) {
                EXPECT_EQ(ma.segments[k].chiplet,
                          mb.segments[k].chiplet);
                EXPECT_EQ(ma.segments[k].range.first,
                          mb.segments[k].range.first);
                EXPECT_EQ(ma.segments[k].range.last,
                          mb.segments[k].range.last);
            }
        }
    }
    EXPECT_EQ(a.metrics.latencySec, b.metrics.latencySec);
    EXPECT_EQ(a.metrics.energyJ, b.metrics.energyJ);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].latencySec,
                  b.candidates[i].latencySec);
        EXPECT_EQ(a.candidates[i].energyJ, b.candidates[i].energyJ);
    }
}

/** Tentpole acceptance: same seed => byte-identical ScheduleResult
 *  (windows, metrics, candidate order) at 1, 4, and 8 pool threads. */
TEST(Scar, ByteIdenticalAcrossPoolSizes)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions serial;
    serial.seed = 2024;
    serial.threads = 1;
    const ScheduleResult baseline = Scar(sc, mcm, serial).run();

    for (int threads : {2, 4, 8}) {
        ThreadPool pool(threads);
        ScarOptions opts;
        opts.seed = 2024;
        opts.pool = &pool;
        const ScheduleResult result = Scar(sc, mcm, opts).run();
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdenticalResults(baseline, result);
    }
}

TEST(Scar, ByteIdenticalAcrossPoolSizesEvolutionary)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetCross6x6(templates::kArvrPes);
    ScarOptions serial;
    serial.seed = 7;
    serial.threads = 1;
    serial.mode = SearchMode::Evolutionary;
    serial.nsplits = 2;
    const ScheduleResult baseline = Scar(sc, mcm, serial).run();

    for (int threads : {2, 4, 8}) {
        ThreadPool pool(threads);
        ScarOptions opts = serial;
        opts.pool = &pool;
        const ScheduleResult result = Scar(sc, mcm, opts).run();
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdenticalResults(baseline, result);
    }
}

// The fleet runs solves as pool tasks whose search pool is that same
// pool. With more solves than workers, every worker is inside a solve
// while the ranking helpers each solve enqueues wait behind the other
// solves, so a window walk that waited on a queued helper would hang.
// Every solve must finish, identical to its serial result.
TEST(Scar, MoreNestedSolvesThanWorkersFinishAndMatchSerial)
{
    const Scenario sc = smallScenario();
    const Mcm brute = templates::hetSides3x3(templates::kArvrPes);
    const Mcm cross = templates::hetCross6x6(templates::kArvrPes);
    const auto options = [](int i) {
        ScarOptions opts;
        opts.seed = 300 + static_cast<std::uint64_t>(i);
        if (i % 3 == 2) {
            opts.mode = SearchMode::Evolutionary;
            opts.nsplits = 2;
        }
        return opts;
    };
    const int kSolves = 6;
    ThreadPool pool(3); // two workers
    std::vector<std::future<ScheduleResult>> solves;
    for (int i = 0; i < kSolves; ++i) {
        solves.push_back(pool.submit([&, i] {
            ScarOptions opts = options(i);
            opts.pool = &pool;
            return Scar(sc, i % 3 == 2 ? cross : brute, opts).run();
        }));
    }
    for (int i = 0; i < kSolves; ++i) {
        ScarOptions serial = options(i);
        serial.threads = 1;
        const ScheduleResult expected =
            Scar(sc, i % 3 == 2 ? cross : brute, serial).run();
        SCOPED_TRACE("solve " + std::to_string(i));
        expectIdenticalResults(expected, solves[i].get());
    }
}

class ScarTargetTest : public ::testing::TestWithParam<OptTarget>
{
};

TEST_P(ScarTargetTest, EveryTargetYieldsValidSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.target = GetParam();
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScarTargetTest,
                         ::testing::Values(OptTarget::Latency,
                                           OptTarget::Energy,
                                           OptTarget::Edp),
                         [](const auto& info) {
                             return optTargetName(info.param);
                         });

TEST(Scar, LatencySearchIsNoSlowerThanEnergySearch)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions lat;
    lat.target = OptTarget::Latency;
    ScarOptions nrg;
    nrg.target = OptTarget::Energy;
    const Metrics ml = Scar(sc, mcm, lat).run().metrics;
    const Metrics me = Scar(sc, mcm, nrg).run().metrics;
    EXPECT_LE(ml.latencySec, me.latencySec * 1.05);
}

TEST(Scar, NsplitsControlsWindowCount)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    for (int nsplits : {0, 2, 4}) {
        ScarOptions opts;
        opts.nsplits = nsplits;
        Scar scar(sc, mcm, opts);
        const ScheduleResult result = scar.run();
        EXPECT_LE(static_cast<int>(result.windows.size()), nsplits + 1);
        expectValidSchedule(sc, result);
    }
}

TEST(Scar, EvolutionaryModeProducesValidSchedule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetCross6x6(templates::kArvrPes);
    ScarOptions opts;
    opts.mode = SearchMode::Evolutionary;
    opts.nsplits = 2;
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    expectValidSchedule(sc, result);
}

TEST(Scar, ExhaustiveProvisioningNeverWorseThanRule)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions rule;
    ScarOptions exhaustive;
    exhaustive.prov.mode = ProvisionerOptions::Mode::Exhaustive;
    exhaustive.prov.maxCandidates = 64;
    const double ruleEdp = Scar(sc, mcm, rule).run().metrics.edp();
    const double exhEdp =
        Scar(sc, mcm, exhaustive).run().metrics.edp();
    EXPECT_LE(exhEdp, ruleEdp * 1.001);
}

TEST(Scar, CustomScoreIsHonored)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    // A latency-dominated custom metric: L^2 * E.
    opts.customScore = [](const Metrics& m) {
        return m.latencySec * m.latencySec * m.energyJ;
    };
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    EXPECT_GT(result.metrics.latencySec, 0.0);
}

TEST(Scar, UniformPackingAblationRuns)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.packing = PackingPolicy::Uniform;
    Scar scar(sc, mcm, opts);
    expectValidSchedule(sc, scar.run());
}

TEST(Scar, TriangularTopologyRuns)
{
    const Scenario sc = smallScenario();
    const Mcm mcm = templates::hetTriangular(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    expectValidSchedule(sc, scar.run());
}

TEST(Scar, SingleModelScenarioWorks)
{
    Scenario sc;
    sc.name = "single";
    sc.models = {zoo::eyeCod(4)};
    sc.finalize();
    const Mcm mcm = templates::simba3x3(Dataflow::NvdlaWS,
                                        templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    expectValidSchedule(sc, scar.run());
}

/**
 * The end-to-end EDPs of the paper solve suite, pinned bit for bit:
 * Sc1-10 on Het-Sides 3x3 by brute force (Sc1-5 at the datacenter PE
 * count, Sc6-10 at the AR/VR one) and Sc4 on Het-Cross 6x6 by the
 * evolutionary search. A search optimization must leave every one of
 * them unchanged, at any pool size.
 */
TEST(Scar, PaperSuiteEdpsArePinned)
{
    const std::uint64_t pinned[11] = {
        0x3fa059375c4b5874uLL, 0x3fa0a5e31575a718uLL,
        0x3fa7010013082535uLL, 0x3ff7227b672a7545uLL,
        0x3ffaa5f130b11a60uLL, 0x403e41a192d283e2uLL,
        0x4037b518b0059167uLL, 0x3f7c03e80eb4ef36uLL,
        0x3fd27795dea5bd07uLL, 0x3fda6c53db2c1bc2uLL,
        0x3ff6cbda60cbf66cuLL,
    };
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        for (int c = 0; c < 11; ++c) {
            const bool evo = c == 10;
            ScarOptions opts;
            opts.pool = &pool;
            if (evo) {
                opts.mode = SearchMode::Evolutionary;
                opts.nsplits = 2;
            }
            const int pes = c < 5 ? templates::kDatacenterPes
                                  : templates::kArvrPes;
            const Mcm mcm =
                evo ? templates::hetCross6x6(templates::kDatacenterPes)
                    : templates::hetSides3x3(pes);
            const double edp =
                Scar(suite::byIndex(evo ? 4 : c + 1), mcm, opts)
                    .run()
                    .metrics.edp();
            std::uint64_t bits = 0;
            std::memcpy(&bits, &edp, sizeof bits);
            SCOPED_TRACE("case " + std::to_string(c) + ", threads " +
                         std::to_string(threads));
            EXPECT_EQ(bits, pinned[c]) << "EDP " << edp;
        }
    }
}

/** FNV-1a over the bit patterns of a candidate cloud, in order. */
std::uint64_t
cloudDigest(const std::vector<Metrics>& cloud)
{
    std::uint64_t h = 0xcbf29ce484222325uLL;
    for (const Metrics& m : cloud) {
        for (const double v : {m.latencySec, m.energyJ}) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            for (int b = 0; b < 8; ++b) {
                h ^= (bits >> (8 * b)) & 0xffu;
                h *= 0x100000001b3uLL;
            }
        }
    }
    return h;
}

/**
 * The scenario-level candidate clouds (every ScheduleResult::candidates
 * point, in order) of Sc1-10 on Het-Sides 3x3 by brute force and of Sc4
 * and Sc9 on Het-Cross 6x6 by the evolutionary search, pinned bit for
 * bit. The clouds are built from each window's ranked top list, so
 * this pins the ranking, trimming and merging of every top list.
 */
TEST(Scar, PaperSuiteCandidateCloudsArePinned)
{
    const std::uint64_t pinned[12] = {
        0x38a3eab23cf3b035uLL, 0x5a96a475ad13523duLL,
        0x314a0a7559e7e0f8uLL, 0x2d6462475d85dd26uLL,
        0x5d0cd4527f272ea2uLL, 0x144d0fbf79f1b254uLL,
        0x76a6a4a5b440be6euLL, 0xc38ca714545e481duLL,
        0x3aa6938e724a17bcuLL, 0x11940af2f263fd31uLL,
        0xca2dd0cb1d78f48auLL, 0xf8816fb79ef5bcceuLL,
    };
    for (int c = 0; c < 12; ++c) {
        const bool evo = c >= 10;
        const int scenario = c < 10 ? c + 1 : (c == 10 ? 4 : 9);
        const int pes = scenario <= 5 ? templates::kDatacenterPes
                                      : templates::kArvrPes;
        ScarOptions opts;
        if (evo) {
            opts.mode = SearchMode::Evolutionary;
            opts.nsplits = 2;
        }
        const Mcm mcm = evo ? templates::hetCross6x6(pes)
                            : templates::hetSides3x3(pes);
        const ScheduleResult result =
            Scar(suite::byIndex(scenario), mcm, opts).run();
        SCOPED_TRACE("case " + std::to_string(c));
        EXPECT_EQ(result.candidates.size(), 80u);
        EXPECT_EQ(cloudDigest(result.candidates), pinned[c])
            << std::hex << "0x" << cloudDigest(result.candidates);
    }
}

TEST(Scar, ThreadCountsAboveOneAreRejectedInFavourOfAPool)
{
    ScarOptions options;
    options.threads = 2;
    try {
        Scar(suite::byIndex(1), templates::hetSides3x3(), options);
        FAIL() << "threads = 2 was accepted";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("pool"), std::string::npos)
            << e.what();
    }
}

TEST(Scar, MoreModelsThanChipletsIsRejected)
{
    Scenario sc;
    sc.name = "five";
    sc.models = {zoo::eyeCod(1), zoo::eyeCod(1), zoo::eyeCod(1),
                 zoo::eyeCod(1), zoo::eyeCod(1)};
    sc.finalize();
    const Mcm mcm = templates::motivational2x2(templates::kArvrPes);
    ScarOptions opts;
    opts.nsplits = 0;
    Scar scar(sc, mcm, opts);
    EXPECT_THROW(scar.run(), FatalError);
}

} // namespace
} // namespace scar
