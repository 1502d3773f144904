/**
 * @file
 * Tests for the fleet serving layer: the asynchronous schedule cache
 * (exactly-once concurrent solves, virtual ready instants, failed
 * solves left retriable), multi-MCM routing, and the determinism contract —
 * wall-clock solve concurrency must never change virtual-time results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

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

std::vector<ServedModel>
smallCatalog()
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

Scenario
mixOf(std::vector<Model> models)
{
    Scenario sc;
    sc.name = "mix";
    sc.models = std::move(models);
    return sc;
}

/** A self-counting stub compute with an optional wall-clock delay. */
struct SlowCompute
{
    std::atomic<int> calls{0};
    int delayMs = 0;

    ComputeFn
    fn()
    {
        return [this](const Scenario& mix) {
            ++calls;
            if (delayMs > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delayMs));
            ScheduleResult result;
            ScheduledWindow sw;
            sw.cost.latencyCycles = 1000.0;
            for (int m = 0; m < mix.numModels(); ++m) {
                ModelPlacement mp;
                mp.modelIdx = m;
                mp.segments.push_back(
                    {LayerRange{0, mix.models[m].numLayers() - 1}, m});
                sw.placement.models.push_back(mp);
            }
            result.windows.push_back(sw);
            return result;
        };
    }
};

/** The lazy mix argument of prefetch / lookup. */
AsyncScheduleCache::MixFn
lazy(const Scenario& mix)
{
    return [&mix]() -> const Scenario& { return mix; };
}

TEST(AsyncScheduleCache, RacingPrefetchAndLookupSolveExactlyOnce)
{
    ThreadPool pool(4);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    compute.delayMs = 30;
    const Scenario mix = mixOf({zoo::eyeCod(4), zoo::handSP(2)});
    const std::string key = mix.signature();

    // Half the callers speculate, half look up at dispatch time; all
    // then join. Whoever launches first, the key solves once.
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CachedSchedule>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            if (t % 2 == 0)
                cache.prefetch(key, lazy(mix), compute.fn(), 1.0);
            else
                cache.lookup(key, lazy(mix), compute.fn(), 0.0, 1.0);
            got[t] = cache.join(key);
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(compute.calls.load(), 1)
        << "racing callers must share one solve";
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    // Every lookup but a launching one counts a hit.
    EXPECT_GE(stats.hits, kThreads / 2 - 1);
    EXPECT_LE(stats.hits, kThreads / 2);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(AsyncScheduleCache, MixIsBuiltOnlyWhenASolveLaunches)
{
    ThreadPool pool(1); // inline solves
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::eyeCod(4)});
    int built = 0;
    const AsyncScheduleCache::MixFn counted =
        [&]() -> const Scenario& {
        ++built;
        return mix;
    };

    cache.prefetch("k", counted, compute.fn(), 1.0);
    EXPECT_EQ(built, 1);
    cache.prefetch("k", counted, compute.fn(), 1.0); // in flight
    cache.lookup("k", counted, compute.fn(), 0.0, 1.0);
    cache.join("k");
    cache.lookup("k", counted, compute.fn(), 2.0, 1.0); // stored
    cache.prefetch("k", counted, compute.fn(), 3.0);
    EXPECT_EQ(built, 1) << "a known key must not build its mix";
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(AsyncScheduleCache, PrefetchLookupJoinLifecycle)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::eyeCod(4)});
    const std::string key = mix.signature();

    // Speculative solve usable from virtual t = 5.
    cache.prefetch(key, lazy(mix), compute.fn(), /*readySec=*/5.0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.size(), 0u) << "in flight, not yet stored";

    // A dispatch at t = 1 reuses the running solve and learns the
    // virtual instant it lands; no second solve starts.
    const AsyncLookup pending =
        cache.lookup(key, lazy(mix), compute.fn(), /*nowSec=*/1.0,
                     /*modeledSolveSec=*/0.5);
    EXPECT_EQ(pending.schedule, nullptr);
    EXPECT_DOUBLE_EQ(pending.readySec, 5.0);
    EXPECT_FALSE(pending.startedSolve);
    EXPECT_EQ(cache.stats().hits, 1);

    const auto joined = cache.join(key);
    ASSERT_NE(joined, nullptr);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(compute.calls.load(), 1);

    // Once stored, lookups are usable immediately.
    const AsyncLookup ready =
        cache.lookup(key, lazy(mix), compute.fn(), 6.0, 0.5);
    EXPECT_EQ(ready.schedule.get(), joined.get());
    EXPECT_DOUBLE_EQ(ready.readySec, 6.0);
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(AsyncScheduleCache, LookupMissLaunchesWithModeledLatency)
{
    ThreadPool pool(2);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::handSP(2)});
    const AsyncLookup miss =
        cache.lookup(mix.signature(), lazy(mix), compute.fn(),
                     /*nowSec=*/2.0, /*modeledSolveSec=*/0.25);
    EXPECT_EQ(miss.schedule, nullptr);
    EXPECT_DOUBLE_EQ(miss.readySec, 2.25);
    EXPECT_TRUE(miss.startedSolve);
    EXPECT_EQ(cache.stats().misses, 1);
    cache.drainInFlight();
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(AsyncScheduleCache, FailedSolveIsErasedAndRetriable)
{
    ThreadPool pool(1); // inline solves: the failure is synchronous
    AsyncScheduleCache cache(pool);
    const Scenario mix = mixOf({zoo::eyeCod(4)});
    const std::string key = mix.signature();
    SlowCompute good;
    std::atomic<int> calls{0};
    const ComputeFn flaky =
        [&](const Scenario& m) -> ScheduleResult {
        if (++calls == 1)
            throw std::runtime_error("transient solver failure");
        return good.fn()(m);
    };

    cache.prefetch(key, lazy(mix), flaky, /*readySec=*/1.0);
    EXPECT_THROW(cache.join(key), std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);

    // The poisoned entry must be gone: a fresh lookup relaunches the
    // solve instead of rejoining the dead future.
    const AsyncLookup retry = cache.lookup(key, lazy(mix), flaky, 2.0, 0.1);
    EXPECT_TRUE(retry.startedSolve);
    EXPECT_NE(cache.join(key), nullptr);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(AsyncScheduleCache, ThrowingMixLeavesKeyRetriable)
{
    ThreadPool pool(1);
    AsyncScheduleCache cache(pool);
    SlowCompute compute;
    const Scenario mix = mixOf({zoo::eyeCod(4)});
    const std::string key = mix.signature();
    const AsyncScheduleCache::MixFn broken = []() -> const Scenario& {
        throw std::runtime_error("mix unavailable");
    };

    EXPECT_THROW(cache.lookup(key, broken, compute.fn(), 0.0, 0.1),
                 std::runtime_error);
    // The registered solve never launched: join() reports it and
    // erases the key, and the next lookup solves.
    EXPECT_ANY_THROW(cache.join(key));
    const AsyncLookup retry =
        cache.lookup(key, lazy(mix), compute.fn(), 1.0, 0.1);
    EXPECT_TRUE(retry.startedSolve);
    EXPECT_NE(cache.join(key), nullptr);
    EXPECT_EQ(compute.calls.load(), 1);
}

TEST(Fleet, MultiShardCompletesEverythingDeterministically)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 400, 11);
    FleetOptions options;
    options.shards = 3;
    options.routing = RoutingPolicy::RoundRobin;
    options.serving.admission.maxQueueDelaySec = 0.005;

    FleetSimulator a(catalog,
                     templates::hetSides3x3(templates::kArvrPes),
                     options);
    const ServingReport ra = a.run(trace);
    EXPECT_EQ(ra.offered, 400);
    EXPECT_EQ(ra.completed, 400);
    ASSERT_EQ(ra.shards.size(), 3u);
    long shardDispatches = 0;
    for (const ShardReport& shard : ra.shards)
        shardDispatches += shard.dispatches;
    EXPECT_EQ(shardDispatches, ra.dispatches);

    FleetSimulator b(catalog,
                     templates::hetSides3x3(templates::kArvrPes),
                     options);
    const ServingReport rb = b.run(trace);
    EXPECT_DOUBLE_EQ(ra.p99LatencySec, rb.p99LatencySec);
    EXPECT_DOUBLE_EQ(ra.throughputRps, rb.throughputRps);
    EXPECT_EQ(ra.cache.misses, rb.cache.misses);
    for (std::size_t s = 0; s < ra.shards.size(); ++s) {
        EXPECT_EQ(ra.shards[s].dispatches, rb.shards[s].dispatches);
        EXPECT_DOUBLE_EQ(ra.shards[s].busySec, rb.shards[s].busySec);
    }
}

TEST(Fleet, WallClockConcurrencyDoesNotChangeResults)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 250, 5);

    auto runWith = [&](ThreadPool& pool) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::LeastLoaded;
        options.serving.pool = &pool;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.005;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace);
    };

    ThreadPool serial(1);
    ThreadPool wide(8);
    const ServingReport a = runWith(serial);
    const ServingReport b = runWith(wide);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.meanLatencySec, b.meanLatencySec);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.solveStallSec, b.solveStallSec);
    EXPECT_DOUBLE_EQ(a.switchOverheadSec, b.switchOverheadSec);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
}

TEST(Fleet, ShardsShareLoadUnderPressure)
{
    auto catalog = smallCatalog();
    catalog[0].rateRps = 2000.0; // saturate one package
    catalog[1].rateRps = 1000.0;
    const auto trace = poissonTrace(catalog, 600, 3);
    FleetOptions options;
    options.shards = 2;
    options.routing = RoutingPolicy::RoundRobin;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 600);
    for (const ShardReport& shard : report.shards) {
        EXPECT_GT(shard.dispatches, 0) << "shard " << shard.shardIdx;
        EXPECT_GT(shard.utilization, 0.0);
    }
}

TEST(Fleet, MoreShardsFinishSaturatedLoadSooner)
{
    auto catalog = smallCatalog();
    catalog[0].rateRps = 2000.0;
    catalog[1].rateRps = 1000.0;
    const auto trace = poissonTrace(catalog, 500, 9);

    auto horizonWith = [&](int shards) {
        FleetOptions options;
        options.shards = shards;
        options.routing = RoutingPolicy::LeastLoaded;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return fleet.run(trace).horizonSec;
    };

    const double one = horizonWith(1);
    const double four = horizonWith(4);
    EXPECT_LT(four, one)
        << "a saturated stream must drain faster on more packages";
}

TEST(Fleet, RoutingPoliciesAllServeTheStream)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 200, 17);
    for (const RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::MixAffinity, RoutingPolicy::BestFit}) {
        FleetOptions options;
        options.shards = 2;
        options.routing = policy;
        FleetSimulator fleet(catalog,
                             templates::hetSides3x3(templates::kArvrPes),
                             options);
        const ServingReport report = fleet.run(trace);
        EXPECT_EQ(report.completed, 200) << routingPolicyName(policy);
        EXPECT_GT(report.cache.hits, 0) << routingPolicyName(policy);
    }
}

TEST(Fleet, SolveStallIsReportedAndBounded)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 150, 2);
    FleetOptions options;
    options.shards = 1;
    options.serving.modeledSolveSec = 0.05;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 150);
    // The cold-start dispatch waits out one full modeled solve...
    EXPECT_GE(report.solveStallSec, 0.05 - 1e-9);
    // ...and no dispatch can stall longer than one modeled solve.
    EXPECT_LE(report.solveStallSec,
              0.05 * static_cast<double>(report.dispatches) + 1e-9);
}

TEST(Fleet, SpeculativeSolvesHideStallBehindReplay)
{
    const auto catalog = smallCatalog();
    const auto trace = poissonTrace(catalog, 200, 2);

    FleetOptions options;
    options.shards = 1;
    options.serving.modeledSolveSec = 0.05;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.completed, 200);
    // A pipeline that began each search at dispatch time would idle
    // the package for one full modeled solve per miss (up to the
    // rounding of the ready instants, so the bound keeps a half-solve
    // margin); overlapping solves with in-flight replays must hide
    // more than that.
    EXPECT_LT(report.solveStallSec,
              (static_cast<double>(report.cache.misses) - 0.5) *
                  options.serving.modeledSolveSec);
}

TEST(Fleet, SwitchOverheadChargedOnMixChanges)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(2);
    catalog[0].rateRps = 1.0;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 1.0;

    FleetOptions options;
    options.shards = 1;
    options.serving.switchOverheadSec = 0.01;
    options.serving.admission.maxQueueDelaySec = 0.005;
    FleetSimulator fleet(catalog,
                         templates::hetSides3x3(templates::kArvrPes),
                         options);
    // Four lone requests, alternating models, far enough apart that
    // each dispatches alone: sigs alternate, so every dispatch after
    // the first re-stages weights.
    const auto trace = traceFromArrivals(
        catalog, {{0.0, 0}, {10.0, 1}, {20.0, 0}, {30.0, 1}});
    const ServingReport report = fleet.run(trace);
    EXPECT_EQ(report.dispatches, 4);
    EXPECT_NEAR(report.switchOverheadSec, 3 * 0.01, 1e-9);
    EXPECT_EQ(report.cache.misses, 2);
    EXPECT_EQ(report.cache.hits, 2);
}

} // namespace
} // namespace runtime
} // namespace scar
