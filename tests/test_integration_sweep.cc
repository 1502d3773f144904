/**
 * @file
 * Cross-module integration sweeps: SCAR end-to-end over the full
 * (template x target) grid on a compact workload, plus system-level
 * invariants the paper's formulation implies (Theorem 1/2 validity,
 * monotonicity properties, baseline orderings).
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/mcm_templates.h"
#include "baselines/nn_baton.h"
#include "baselines/standalone.h"
#include "common/units.h"
#include "eval/pareto.h"
#include "eval/scenario_suite.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

Scenario
sweepScenario()
{
    Scenario sc;
    sc.name = "sweep";
    sc.models = {zoo::eyeCod(6), zoo::sp2Dense(2)};
    sc.finalize();
    return sc;
}

void
expectCoverage(const Scenario& sc, const ScheduleResult& result)
{
    std::vector<int> next(sc.numModels(), 0);
    for (const ScheduledWindow& sw : result.windows) {
        std::set<int> used;
        for (const ModelPlacement& mp : sw.placement.models) {
            for (const PlacedSegment& seg : mp.segments) {
                ASSERT_TRUE(used.insert(seg.chiplet).second);
                ASSERT_EQ(seg.range.first, next[mp.modelIdx]);
                next[mp.modelIdx] = seg.range.last + 1;
            }
        }
    }
    for (int m = 0; m < sc.numModels(); ++m)
        ASSERT_EQ(next[m], sc.models[m].numLayers());
}

struct SweepCase
{
    const char* name;
    std::function<Mcm()> make;
};

class TemplateSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(TemplateSweep, AllTargetsProduceValidSchedules)
{
    const Scenario sc = sweepScenario();
    const Mcm mcm = GetParam().make();
    for (OptTarget target :
         {OptTarget::Latency, OptTarget::Energy, OptTarget::Edp}) {
        ScarOptions opts;
        opts.target = target;
        opts.nsplits = 2;
        Scar scar(sc, mcm, opts);
        const ScheduleResult result = scar.run();
        expectCoverage(sc, result);
        EXPECT_GT(result.metrics.latencySec, 0.0);
        EXPECT_GT(result.metrics.energyJ, 0.0);
        EXPECT_FALSE(result.candidates.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Templates, TemplateSweep,
    ::testing::Values(
        SweepCase{"SimbaShi",
                  [] {
                      return templates::simba3x3(Dataflow::ShiOS,
                                                 templates::kArvrPes);
                  }},
        SweepCase{"SimbaNvd",
                  [] {
                      return templates::simba3x3(Dataflow::NvdlaWS,
                                                 templates::kArvrPes);
                  }},
        SweepCase{"HetCb",
                  [] { return templates::hetCb3x3(templates::kArvrPes); }},
        SweepCase{"HetSides",
                  [] {
                      return templates::hetSides3x3(templates::kArvrPes);
                  }},
        SweepCase{"HetTri",
                  [] {
                      return templates::hetTriple3x3(templates::kArvrPes);
                  }},
        SweepCase{"SimbaT",
                  [] {
                      return templates::simbaTriangular(
                          Dataflow::NvdlaWS, templates::kArvrPes);
                  }},
        SweepCase{"HetT",
                  [] {
                      return templates::hetTriangular(templates::kArvrPes);
                  }},
        SweepCase{"Mot2x2",
                  [] {
                      return templates::motivational2x2(
                          templates::kArvrPes);
                  }}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
        return info.param.name;
    });

class ScenarioSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ScenarioSweep, ArvrScenariosScheduleEndToEnd)
{
    const Scenario sc = suite::arvrScenario(GetParam());
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions opts;
    opts.nsplits = 2; // keep the sweep fast
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    expectCoverage(sc, result);
}

INSTANTIATE_TEST_SUITE_P(Arvr, ScenarioSweep, ::testing::Range(6, 11));

TEST(IntegrationInvariants, MoreChipletsNeverHurtMuch)
{
    // A 6x6 package offers a superset of the 3x3's placements; the
    // greedy per-window search is heuristic, so allow 10% slack.
    const Scenario sc = sweepScenario();
    ScarOptions opts;
    opts.nsplits = 2;
    Scar small(sc, templates::simba3x3(Dataflow::NvdlaWS,
                                       templates::kArvrPes),
               opts);
    Scar large(sc, templates::simba6x6(Dataflow::NvdlaWS,
                                       templates::kArvrPes),
               opts);
    EXPECT_LE(large.run().metrics.edp(),
              small.run().metrics.edp() * 1.1);
}

TEST(IntegrationInvariants, ContentionOffNeverSlower)
{
    const Scenario sc = sweepScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions on;
    ScarOptions off;
    off.eval.contention = false;
    off.eval.dramRoofline = false;
    const Metrics mOn = Scar(sc, mcm, on).run().metrics;
    const Metrics mOff = Scar(sc, mcm, off).run().metrics;
    EXPECT_LE(mOff.latencySec, mOn.latencySec * 1.05);
}

TEST(IntegrationInvariants, ParetoFrontSubsetOfCandidates)
{
    const Scenario sc = sweepScenario();
    const Mcm mcm = templates::hetCb3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    const auto front = paretoFront(result.candidates);
    EXPECT_FALSE(front.empty());
    EXPECT_LE(front.size(), result.candidates.size());
    // No candidate dominates a front point.
    for (const Metrics& f : front) {
        for (const Metrics& c : result.candidates)
            EXPECT_FALSE(dominates(c, f));
    }
}

TEST(IntegrationInvariants, BaselineOrderingOnLlmWorkload)
{
    // The cross-baseline ordering underlying Table IV: on an
    // LLM-dominated workload, standalone NVDLA beats standalone Shi by
    // a large factor, and SCAR on the NVDLA mesh beats NN-baton.
    Scenario sc;
    sc.name = "llm";
    sc.models = {zoo::bertBase(4), zoo::emformer(2)};
    sc.finalize();
    const Mcm nvd = templates::simba3x3(Dataflow::NvdlaWS);
    const Mcm shi = templates::simba3x3(Dataflow::ShiOS);

    const double standNvd = scheduleStandalone(sc, nvd).metrics.edp();
    const double standShi = scheduleStandalone(sc, shi).metrics.edp();
    EXPECT_GT(standShi, 2.0 * standNvd);

    const double baton = scheduleNnBaton(sc, nvd).metrics.edp();
    Scar scar(sc, nvd, ScarOptions{});
    EXPECT_LT(scar.run().metrics.edp(), baton);
}

TEST(IntegrationInvariants, SeedChangesOnlyWithinTolerance)
{
    // Different seeds explore different capped samples but converge to
    // comparable schedule quality (within 25%).
    const Scenario sc = sweepScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    ScarOptions a;
    a.seed = 1;
    ScarOptions b;
    b.seed = 12345;
    const double ea = Scar(sc, mcm, a).run().metrics.edp();
    const double eb = Scar(sc, mcm, b).run().metrics.edp();
    EXPECT_LT(std::max(ea, eb) / std::min(ea, eb), 1.25);
}

TEST(IntegrationInvariants, WindowCostsAreSelfConsistent)
{
    const Scenario sc = sweepScenario();
    const Mcm mcm = templates::hetSides3x3(templates::kArvrPes);
    Scar scar(sc, mcm, ScarOptions{});
    const ScheduleResult result = scar.run();
    for (const ScheduledWindow& sw : result.windows) {
        double maxModel = 0.0;
        double sumEnergy = 0.0;
        for (const ModelWindowCost& mc : sw.cost.perModel) {
            maxModel = std::max(maxModel, mc.latencyCycles);
            sumEnergy += mc.energyNj;
        }
        EXPECT_GE(sw.cost.latencyCycles, maxModel * 0.999);
        EXPECT_NEAR(sw.cost.energyNj, sumEnergy, sumEnergy * 1e-9);
    }
}

} // namespace
} // namespace scar
