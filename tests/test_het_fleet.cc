/**
 * @file
 * Tests for heterogeneous multi-MCM fleets: per-shard package
 * templates, the (mix, package)-keyed schedule cache (different
 * templates must never share a cached schedule; identical shards
 * must still deduplicate), the cost-aware BestFit routing policy,
 * its deferral guards and WindowEvaluator-based completion
 * estimates, and the no-wasted-speculative-solve contract.
 */

#include <gtest/gtest.h>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace runtime
{
namespace
{

/** One tiny model at batch cap 1: every dispatch forms the same mix,
 *  so cache sharing is decided purely by the package half of the key. */
std::vector<ServedModel>
singleModelCatalog()
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(1);
    catalog[0].rateRps = 100.0;
    catalog[0].sloSec = 0.5;
    return catalog;
}

std::vector<ServedModel>
twoModelCatalog()
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.05;
    return catalog;
}

/** A fast (many-PE) and a slow (few-PE) package of the same shape. */
Mcm
fastPackage()
{
    return templates::simba3x3(Dataflow::NvdlaWS, 1024);
}

Mcm
slowPackage()
{
    return templates::simba3x3(Dataflow::NvdlaWS, 64);
}

TEST(HetFleet, PerShardTemplatesServeAndReportTheirNames)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 300, 31);
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes)};
    options.routing = RoutingPolicy::RoundRobin;
    options.serving.admission.maxQueueDelaySec = 0.005;

    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    ASSERT_EQ(fleet.shardCount(), 2);
    EXPECT_EQ(fleet.mcm(0).name(),
              templates::hetSides3x3(templates::kArvrPes).name());
    EXPECT_EQ(fleet.mcm(1).name(),
              templates::simba3x3(Dataflow::ShiOS,
                                  templates::kArvrPes)
                  .name());

    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 300);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].mcmName, fleet.mcm(0).name());
    EXPECT_EQ(report.shards[1].mcmName, fleet.mcm(1).name());
    for (const ShardReport& shard : report.shards)
        EXPECT_GT(shard.dispatches, 0) << "shard " << shard.shardIdx;
}

TEST(HetFleet, HeterogeneousRunsAreDeterministic)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 200, 13);
    auto runOnce = [&]() {
        FleetOptions options;
        options.shardTemplates = {
            templates::hetSides3x3(templates::kArvrPes),
            templates::simba3x3(Dataflow::ShiOS,
                                templates::kArvrPes)};
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace);
    };
    const ServingReport a = runOnce();
    const ServingReport b = runOnce();
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    for (std::size_t s = 0; s < a.shards.size(); ++s)
        EXPECT_EQ(a.shards[s].dispatches, b.shards[s].dispatches);
}

TEST(HetFleet, ShardsCountConflictingWithTemplatesIsRejected)
{
    FleetOptions options;
    options.shards = 3;
    options.shardTemplates = {fastPackage(), slowPackage()};
    EXPECT_THROW(FleetSimulator(singleModelCatalog(), fastPackage(),
                                options),
                 FatalError);
}

/**
 * The cache-key regression of the issue: the same mix dispatched on
 * two different package templates must be solved once per template —
 * a schedule searched for one package is meaningless on another —
 * even though the fleet has one cache.
 */
TEST(HetFleet, DifferentTemplatesNeverShareACachedSchedule)
{
    const auto catalog = singleModelCatalog();
    // Two lone requests far apart: each dispatches alone with the
    // identical mix signature; round-robin sends them to shards 0
    // and 1 in turn.
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shardTemplates = {fastPackage(), slowPackage()};
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog, fastPackage(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 2)
        << "one solve per (mix, package) pair";
    EXPECT_EQ(report.cache.hits, 0);
    EXPECT_EQ(report.uniqueMixes, 2)
        << "the shared store holds one entry per package";
}

/**
 * Interconnect-only variants must never alias. The four Het-Sides
 * packages share every chiplet spec and memory-interface position —
 * they differ in nothing but the topology (torus wrap links, express
 * diagonals, a broadcast plane) — so only the topology prefix of
 * Mcm::signature() keeps their schedule-cache keys apart.
 */
TEST(HetFleet, InterconnectVariantsGetDistinctSignatures)
{
    const std::vector<Mcm> variants = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::hetSidesTorus3x3(templates::kArvrPes),
        templates::hetSidesExpress3x3(templates::kArvrPes),
        templates::hetSidesBroadcast3x3(templates::kArvrPes)};
    for (std::size_t a = 0; a < variants.size(); ++a) {
        for (std::size_t b = a + 1; b < variants.size(); ++b)
            EXPECT_NE(variants[a].signature(), variants[b].signature())
                << variants[a].name() << " vs " << variants[b].name();
    }
}

/**
 * The fleet-level consequence: two shards whose packages differ only
 * in interconnect must each get their own solve from the fleet's one
 * cache — a schedule searched on the mesh is wrong on the torus even
 * though every chiplet matches.
 */
TEST(HetFleet, InterconnectOnlyShardsNeverShareACachedSchedule)
{
    const auto catalog = singleModelCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::hetSidesTorus3x3(templates::kArvrPes)};
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 2)
        << "mesh and torus shards must solve separately";
    EXPECT_EQ(report.cache.hits, 0);
    EXPECT_EQ(report.uniqueMixes, 2)
        << "one shared-store entry per interconnect";
}

/** The homogeneous counterpart: identical shards still deduplicate —
 *  the second shard replays the first shard's schedule. */
TEST(HetFleet, SharedCacheStillDeduplicatesAcrossIdenticalShards)
{
    const auto catalog = singleModelCatalog();
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}, {10.0, 0}});

    FleetOptions options;
    options.shards = 2; // homogeneous copies of the ctor template
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog, fastPackage(), options);
    const ServingReport report = fleet.run(trace);

    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.shards[0].dispatches, 1);
    EXPECT_EQ(report.shards[1].dispatches, 1);
    EXPECT_EQ(report.cache.misses, 1)
        << "identical packages share one schedule";
    EXPECT_EQ(report.cache.hits, 1);
    EXPECT_EQ(report.uniqueMixes, 1);
}

TEST(HetFleet, MakespanEstimateRanksFastPackageBelowSlow)
{
    const auto catalog = singleModelCatalog();
    FleetOptions options;
    options.shardTemplates = {fastPackage(), slowPackage()};
    FleetSimulator fleet(catalog, fastPackage(), options);

    Scenario mix;
    mix.name = "probe";
    mix.models = {catalog[0].model};

    const double fast = fleet.estimateMakespanSec(0, mix);
    const double slow = fleet.estimateMakespanSec(1, mix);
    EXPECT_GT(fast, 0.0);
    EXPECT_LT(fast, slow)
        << "a 16x-PE package must estimate a shorter makespan";
    // Memoized: re-estimating is exact, not merely close.
    EXPECT_DOUBLE_EQ(fast, fleet.estimateMakespanSec(0, mix));
}

/** BestFit with every shard idle routes to the package the cost
 *  model ranks fastest for the mix — not to shard 0 by convention. */
TEST(HetFleet, BestFitPicksTheCheaperTemplate)
{
    const auto catalog = singleModelCatalog();
    const auto trace = traceFromArrivals(catalog, {{0.0, 0}});

    for (const bool fastFirst : {true, false}) {
        FleetOptions options;
        options.routing = RoutingPolicy::BestFit;
        if (fastFirst)
            options.shardTemplates = {fastPackage(), slowPackage()};
        else
            options.shardTemplates = {slowPackage(), fastPackage()};
        FleetSimulator fleet(catalog, fastPackage(), options);
        const ServingReport report = fleet.run(trace);
        const int fastShard = fastFirst ? 0 : 1;
        EXPECT_EQ(report.shards[fastShard].dispatches, 1)
            << "fast shard must take the lone dispatch (fastFirst="
            << fastFirst << ")";
        EXPECT_EQ(report.shards[1 - fastShard].dispatches, 0);
    }
}

TEST(HetFleet, BestFitRoutesAreCostOptimalByConstruction)
{
    const auto catalog = twoModelCatalog();
    const auto trace = poissonTrace(catalog, 150, 7);
    FleetOptions options;
    options.shardTemplates = {
        templates::hetSides3x3(templates::kArvrPes),
        templates::simba3x3(Dataflow::ShiOS, templates::kArvrPes)};
    options.routing = RoutingPolicy::BestFit;
    options.serving.admission.maxQueueDelaySec = 0.005;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 150);
    EXPECT_GT(report.contestedRoutes, 0)
        << "a lightly loaded 2-shard fleet must see contested routes";
    EXPECT_EQ(report.costOptimalRoutes, report.contestedRoutes);
    EXPECT_DOUBLE_EQ(report.costOptimalRouteFrac, 1.0);
}

/**
 * BestFit's deferral guards, on a fast + slow fleet whose fast package
 * is busy replaying request 0. A batch that fits one dispatch waits
 * for the fast package; a queue one request past its cap dispatches
 * its oldest batch on the idle slow package at once, since deferring
 * would strand the rest; an urgent batch never defers.
 */
TEST(HetFleet, BestFitDefersOnlyFittingNonUrgentBatches)
{
    const auto catalog = singleModelCatalog(); // batch cap 1
    struct Outcome
    {
        ServingReport report;
        std::vector<Request> records;

        double dispatchSec(std::int64_t id) const
        {
            for (const Request& req : records) {
                if (req.id == id)
                    return req.dispatchSec;
            }
            return -1.0;
        }
    };
    const auto serve =
        [&](const std::vector<std::pair<double, int>>& arrivals,
            bool urgent) {
            FleetOptions options;
            options.shardTemplates = {fastPackage(), slowPackage()};
            options.routing = RoutingPolicy::BestFit;
            // A slack threshold above the SLO makes every request
            // urgent on arrival.
            options.serving.preemption.enabled = urgent;
            options.serving.preemption.slackThresholdSec =
                2.0 * catalog[0].sloSec;
            FleetSimulator fleet(catalog, fastPackage(), options);
            Outcome out{fleet.run(traceFromArrivals(catalog, arrivals)),
                        {}};
            out.records = fleet.records();
            return out;
        };

    const Outcome fits = serve({{0.0, 0}, {0.0001, 0}}, false);
    EXPECT_EQ(fits.report.completed, 2);
    EXPECT_EQ(fits.report.shards[0].dispatches, 2)
        << "the fitting batch must wait for the fast package";
    EXPECT_EQ(fits.report.shards[1].dispatches, 0);
    EXPECT_GT(fits.dispatchSec(1), 0.0001);

    const Outcome overflow =
        serve({{0.0, 0}, {0.0001, 0}, {0.0002, 0}}, false);
    EXPECT_EQ(overflow.report.completed, 3);
    EXPECT_GE(overflow.report.shards[1].dispatches, 1);
    EXPECT_DOUBLE_EQ(overflow.dispatchSec(1), 0.0002)
        << "request 1 must leave the moment request 2 overflows the "
           "queue";

    const Outcome urgent = serve({{0.0, 0}, {0.0001, 0}}, true);
    EXPECT_EQ(urgent.report.completed, 2);
    EXPECT_EQ(urgent.report.shards[1].dispatches, 1)
        << "the urgent batch must take the idle slow package";
    EXPECT_DOUBLE_EQ(urgent.dispatchSec(1), 0.0001);
}

/**
 * The wasted-speculation regression: a (mix, package) schedule that
 * is already resident — or already solving — for the shard the
 * dispatch is predicted to land on must not trigger another
 * background solve. Three back-to-back cap-1 requests: the first two
 * park one dispatch per shard (one solve, which the second joins);
 * the third finds every shard occupied, so the speculative path runs
 * — and must recognize the in-flight solve instead of launching a
 * second.
 */
TEST(HetFleet, SpeculationNeverResolvesAResidentSchedule)
{
    const auto catalog = singleModelCatalog();
    const auto trace = traceFromArrivals(
        catalog, {{0.0, 0}, {0.0005, 0}, {0.001, 0}});

    for (const RoutingPolicy policy :
         {RoutingPolicy::LeastLoaded, RoutingPolicy::BestFit,
          RoutingPolicy::MixAffinity}) {
        FleetOptions options;
        options.shards = 2;
        options.routing = policy;
        options.serving.modeledSolveSec = 0.05;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        const ServingReport report = fleet.run(trace);
        EXPECT_EQ(report.completed, 3) << routingPolicyName(policy);
        // One solve for the single mix; requests 2 and 3 replay it. A
        // wasted speculative solve would show as a second miss.
        EXPECT_EQ(report.cache.misses, 1) << routingPolicyName(policy);
        EXPECT_EQ(report.cache.hits, 2) << routingPolicyName(policy);
    }
}

} // namespace
} // namespace runtime
} // namespace scar
