/**
 * @file
 * Tests for the SEG engine: enumeration correctness (Theorem 1
 * validity: coverage + exclusivity), capping behaviour, the
 * Heuristic-1 quick ranking, and a differential oracle pinning the
 * streaming ranking to the naive materializing one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "arch/mcm_templates.h"
#include "common/logging.h"
#include "common/units.h"
#include "cost/comm_model.h"
#include "obs/solve_profile.h"
#include "sched/segmentation.h"
#include "sched/segmentation_detail.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

long
binomial(int n, int k)
{
    long r = 1;
    for (int i = 0; i < k; ++i)
        r = r * (n - i) / (i + 1);
    return r;
}

class SegEnumTest
    : public ::testing::TestWithParam<std::pair<int, int>> // layers, maxSegs
{
};

TEST_P(SegEnumTest, CandidatesAreValidPartitions)
{
    const auto [layers, maxSegs] = GetParam();
    Rng rng(1);
    const LayerRange range{3, 3 + layers - 1}; // offset start
    const auto candidates =
        enumerateSegmentations(range, maxSegs, 100000, rng);
    for (const Segmentation& seg : candidates) {
        // Theorem 1: coverage and exclusivity.
        ASSERT_FALSE(seg.segments.empty());
        EXPECT_EQ(seg.segments.front().first, range.first);
        EXPECT_EQ(seg.segments.back().last, range.last);
        for (std::size_t k = 0; k + 1 < seg.segments.size(); ++k) {
            EXPECT_EQ(seg.segments[k + 1].first,
                      seg.segments[k].last + 1);
        }
        EXPECT_LE(seg.numSegments(), maxSegs);
    }
}

TEST_P(SegEnumTest, CountMatchesBinomialSum)
{
    const auto [layers, maxSegs] = GetParam();
    Rng rng(1);
    const LayerRange range{0, layers - 1};
    const auto candidates =
        enumerateSegmentations(range, maxSegs, 100000, rng);
    long expected = 0;
    for (int segs = 1; segs <= std::min(maxSegs, layers); ++segs)
        expected += binomial(layers - 1, segs - 1);
    EXPECT_EQ(static_cast<long>(candidates.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegEnumTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(5, 1),
                      std::make_pair(5, 3), std::make_pair(8, 4),
                      std::make_pair(12, 2), std::make_pair(10, 10)));

TEST(SegEnum, CapLimitsEnumeration)
{
    Rng rng(1);
    const LayerRange range{0, 59}; // C(59, 3) = 32509 > cap
    const auto candidates = enumerateSegmentations(range, 4, 50, rng);
    // Per segment count the cap applies; total stays modest.
    EXPECT_LE(candidates.size(), 4u * 50u + 4u);
    // Sampled candidates are still valid partitions.
    for (const Segmentation& seg : candidates) {
        EXPECT_EQ(seg.segments.front().first, 0);
        EXPECT_EQ(seg.segments.back().last, 59);
    }
}

TEST(SegEnum, MaxSegsClampedToLayerCount)
{
    Rng rng(1);
    const auto candidates =
        enumerateSegmentations(LayerRange{0, 2}, 9, 1000, rng);
    for (const Segmentation& seg : candidates)
        EXPECT_LE(seg.numSegments(), 3);
}

class RankFixture : public ::testing::Test
{
  protected:
    RankFixture()
        : mcm_(templates::hetSides3x3())
    {
        sc_.name = "rank";
        sc_.models = {zoo::bertBase(8)};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
};

TEST_F(RankFixture, QuickScorePositiveAndFinite)
{
    Rng rng(3);
    const LayerRange range{0, 11};
    const auto candidates = enumerateSegmentations(range, 3, 1000, rng);
    for (const Segmentation& seg : candidates) {
        const double s = quickScore(*db_, 0, seg, OptTarget::Edp);
        EXPECT_GT(s, 0.0);
        EXPECT_TRUE(std::isfinite(s));
    }
}

TEST_F(RankFixture, RankedListIsSortedByQuickScore)
{
    Rng rng(3);
    SegmentationOptions opts;
    opts.pruneK = 8;
    const auto ranked = rankSegmentations(*db_, 0, LayerRange{0, 11}, 3,
                                          OptTarget::Edp, opts, rng);
    for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
        EXPECT_LE(quickScore(*db_, 0, ranked[i], OptTarget::Edp),
                  quickScore(*db_, 0, ranked[i + 1], OptTarget::Edp) +
                      1e-12);
    }
}

TEST_F(RankFixture, DiversityKeepsEverySegmentCount)
{
    Rng rng(3);
    SegmentationOptions opts;
    opts.pruneK = 6;
    const auto ranked = rankSegmentations(*db_, 0, LayerRange{0, 11}, 3,
                                          OptTarget::Edp, opts, rng);
    std::set<int> counts;
    for (const Segmentation& seg : ranked)
        counts.insert(seg.numSegments());
    EXPECT_EQ(counts.size(), 3u); // 1, 2 and 3-segment candidates kept
}

TEST_F(RankFixture, PipeliningLowersQuickLatencyForBatches)
{
    // For a batched model, the best 3-segment candidate must beat the
    // single-segment candidate under the latency target.
    Rng rng(3);
    const LayerRange range{0, 11};
    const auto candidates =
        enumerateSegmentations(range, 3, 100000, rng);
    double best1 = 1e30;
    double best3 = 1e30;
    for (const Segmentation& seg : candidates) {
        const double s = quickScore(*db_, 0, seg, OptTarget::Latency);
        if (seg.numSegments() == 1)
            best1 = std::min(best1, s);
        if (seg.numSegments() == 3)
            best3 = std::min(best3, s);
    }
    EXPECT_LT(best3, best1);
}

// ---- Differential oracle for the Heuristic-1 ranking --------------
//
// The materialize -> quickScore -> sort ranker that rankSegmentations
// replaces by a streaming pass, kept verbatim as the naive reference:
// std::set dedup, one heap-allocated Segmentation per candidate, the
// per-layer CostDb scoring loop, and scores recomputed inside the
// final comparator. The streaming code must match it bit for bit.
// (Calls are namespace-qualified only to sidestep argument-dependent
// lookup of the library functions of the same name.)
namespace reference
{

/** Builds a segmentation from sorted split gaps (split after gap g). */
Segmentation
fromSplits(const LayerRange& range, const std::vector<int>& splits)
{
    Segmentation seg;
    int first = range.first;
    for (int gap : splits) {
        seg.segments.push_back(LayerRange{first, range.first + gap});
        first = range.first + gap + 1;
    }
    seg.segments.push_back(LayerRange{first, range.last});
    return seg;
}

/** Balanced splits: numSegs equal-size parts. */
std::vector<int>
balancedSplits(int layers, int numSegs)
{
    std::vector<int> splits;
    for (int s = 1; s < numSegs; ++s)
        splits.push_back(s * layers / numSegs - 1);
    return splits;
}

/** Number of ways to choose `k` from `n`, saturating at a large cap. */
double
choose(int n, int k)
{
    double result = 1.0;
    for (int i = 0; i < k; ++i) {
        result *= static_cast<double>(n - i) / (i + 1);
        if (result > 1.0e12)
            return 1.0e12;
    }
    return result;
}

std::vector<Segmentation>
enumerateSegmentations(const LayerRange& range, int maxSegs,
                       int capPerCount, Rng& rng)
{
    SCAR_REQUIRE(!range.empty(), "cannot segment an empty range");
    SCAR_REQUIRE(maxSegs >= 1, "need at least one segment");
    const int layers = range.size();
    const int segLimit = std::min(maxSegs, layers);

    std::vector<Segmentation> out;
    for (int numSegs = 1; numSegs <= segLimit; ++numSegs) {
        const int splitsNeeded = numSegs - 1;
        const int gaps = layers - 1;
        const double count = choose(gaps, splitsNeeded);

        if (count <= capPerCount) {
            // Full enumeration of split combinations.
            std::vector<int> splits(splitsNeeded);
            for (int i = 0; i < splitsNeeded; ++i)
                splits[i] = i;
            while (true) {
                out.push_back(fromSplits(range, splits));
                // Next combination in lexicographic order.
                int i = splitsNeeded - 1;
                while (i >= 0 && splits[i] == gaps - splitsNeeded + i)
                    --i;
                if (i < 0)
                    break;
                ++splits[i];
                for (int j = i + 1; j < splitsNeeded; ++j)
                    splits[j] = splits[j - 1] + 1;
            }
        } else {
            debug("segmentation enumeration capped: C(", gaps, ",",
                  splitsNeeded, ") > ", capPerCount);
            std::set<std::vector<int>> seen;
            // Always include the balanced candidate.
            std::vector<int> balanced = balancedSplits(layers, numSegs);
            seen.insert(balanced);
            out.push_back(fromSplits(range, balanced));
            int attempts = 0;
            while (static_cast<int>(seen.size()) < capPerCount &&
                   attempts < capPerCount * 4) {
                ++attempts;
                std::set<int> picks;
                while (static_cast<int>(picks.size()) < splitsNeeded)
                    picks.insert(rng.uniformInt(0, gaps - 1));
                std::vector<int> splits(picks.begin(), picks.end());
                if (seen.insert(splits).second)
                    out.push_back(fromSplits(range, splits));
            }
        }
    }
    return out;
}

double
quickScore(const CostDb& db, int model, const Segmentation& seg,
           OptTarget target)
{
    const Model& m = db.scenario().models[model];
    const int batch = m.batch;
    const CommModel comm(db.mcm());

    double sumCycles = 0.0;
    double maxSeg = 0.0;
    double energyNj = 0.0;
    const std::size_t numSegs = seg.segments.size();
    for (std::size_t k = 0; k < numSegs; ++k) {
        const LayerRange& r = seg.segments[k];
        double cycles = 0.0;
        for (int l = r.first; l <= r.last; ++l) {
            cycles += db.expectedLayerCycles(model, l);
            energyNj += db.expectedLayerEnergyNj(model, l) * batch;
        }
        // 1-hop NoP handoff into this segment (placement-free proxy).
        if (k > 0) {
            const int prevLast = seg.segments[k - 1].last;
            const double bytes = m.layers[prevLast].outputBytes();
            cycles += bytes / comm.nopBytesPerCycle() +
                      comm.hopLatencyCycles();
            energyNj += pjToNj(bytes * 8.0 *
                               db.mcm().params().nopEnergyPjPerBit) *
                        batch;
        }
        sumCycles += cycles;
        maxSeg = std::max(maxSeg, cycles);
    }
    const double latCycles = sumCycles + (batch - 1) * maxSeg;
    const Metrics metrics{cyclesToSeconds(latCycles),
                          njToJoules(energyNj)};
    return metrics.value(target);
}

std::vector<Segmentation>
rankSegmentations(const CostDb& db, int model, const LayerRange& range,
                  int maxSegs, OptTarget target,
                  const SegmentationOptions& opts, Rng& rng)
{
    std::vector<Segmentation> candidates = reference::enumerateSegmentations(
        range, maxSegs, opts.enumCapPerCount, rng);

    std::vector<std::pair<double, std::size_t>> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        scored.emplace_back(
            reference::quickScore(db, model, candidates[i], target), i);
    std::sort(scored.begin(), scored.end());

    // Per-segment-count diversity: always keep each count's best.
    std::set<int> countsSeen;
    std::vector<std::size_t> picked;
    std::vector<bool> taken(candidates.size(), false);
    for (const auto& [score, idx] : scored) {
        const int count = candidates[idx].numSegments();
        if (countsSeen.insert(count).second) {
            picked.push_back(idx);
            taken[idx] = true;
        }
    }
    for (const auto& [score, idx] : scored) {
        if (static_cast<int>(picked.size()) >= opts.pruneK)
            break;
        if (!taken[idx]) {
            picked.push_back(idx);
            taken[idx] = true;
        }
    }

    // Re-sort the picked set by score so callers see best-first order.
    std::sort(picked.begin(), picked.end(),
              [&](std::size_t a, std::size_t b) {
                  return reference::quickScore(db, model, candidates[a],
                                               target) <
                         reference::quickScore(db, model, candidates[b],
                                               target);
              });

    std::vector<Segmentation> top;
    top.reserve(picked.size());
    for (std::size_t idx : picked)
        top.push_back(candidates[idx]);
    return top;
}

} // namespace reference

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameSegments(const Segmentation& a, const Segmentation& b)
{
    return a.segments == b.segments;
}

/** Scenario spanning the zoo's layer-count and batch shapes. */
class RankOracle : public ::testing::Test
{
  protected:
    RankOracle() : mcm_(templates::hetSides3x3())
    {
        sc_.name = "oracle";
        sc_.models = {zoo::bertBase(8), zoo::resNet50(4), zoo::eyeCod(2),
                      zoo::handSP(1), zoo::googleNet(3), zoo::emformer(1),
                      zoo::gptL(1)};
        sc_.finalize();
        db_ = std::make_unique<CostDb>(sc_, mcm_);
    }

    /** One seeded configuration of the ranking inputs. */
    struct Config
    {
        int model;
        LayerRange range;
        int maxSegs;
        OptTarget target;
        SegmentationOptions opts;
        std::uint64_t seed;
        bool capped; ///< some segment count takes the sampling branch
        bool wide;   ///< ...with more than 64 gaps (multi-word picks)
    };

    Config
    config(int i, Rng& pick) const
    {
        static const OptTarget kTargets[] = {
            OptTarget::Latency, OptTarget::Energy, OptTarget::Edp};
        static const int kPruneK[] = {1, 3, 16};
        // 6 and 40 reach the capped branch on short ranges too; 512
        // is the default and caps only long ranges.
        static const int kCaps[] = {6, 40, 512};
        Config c;
        c.model = pick.uniformInt(0, sc_.numModels() - 1);
        const int layers = sc_.models[c.model].numLayers();
        // Every fifth range may span the whole model (up to 110
        // layers), so the sampler's pick bitmaps exceed one word.
        const int len = pick.uniformInt(
            1, i % 5 == 4 ? layers : std::min(layers, 48));
        const int first = pick.uniformInt(0, layers - len);
        c.range = LayerRange{first, first + len - 1};
        c.maxSegs = pick.uniformInt(1, 9);
        c.target = kTargets[i % 3];
        c.opts.pruneK = kPruneK[(i / 3) % 3];
        c.opts.enumCapPerCount = kCaps[(i / 9) % 3];
        c.seed = static_cast<std::uint64_t>(pick.uniformInt(0, 1 << 30));
        c.capped = false;
        for (int segs = 2; segs <= std::min(c.maxSegs, len); ++segs) {
            if (binomial(len - 1, segs - 1) > c.opts.enumCapPerCount)
                c.capped = true;
        }
        c.wide = c.capped && len - 1 > 64;
        return c;
    }

    /**
     * A configuration shaped like the EA's seed rankings on a 6x6
     * package: up to 36 segments over ranges of 30-110 layers, at the
     * default cap and a tighter one, so most take the sampling branch
     * with many segment counts.
     */
    Config
    eaConfig(int i, Rng& pick) const
    {
        static const OptTarget kTargets[] = {
            OptTarget::Latency, OptTarget::Energy, OptTarget::Edp};
        static const int kPruneK[] = {1, 3, 16};
        static const int kCaps[] = {40, 512};
        // The models with at least 30 layers (BERT-base 36, ResNet-50
        // 72, GoogLeNet 63, Emformer 60, GPT-L 110).
        static const int kLongModels[] = {0, 1, 4, 5, 6};
        Config c;
        c.model = kLongModels[pick.uniformInt(0, 4)];
        const int layers = sc_.models[c.model].numLayers();
        const int len = pick.uniformInt(30, layers);
        const int first = pick.uniformInt(0, layers - len);
        c.range = LayerRange{first, first + len - 1};
        c.maxSegs = pick.uniformInt(2, 36);
        c.target = kTargets[i % 3];
        c.opts.pruneK = kPruneK[(i / 3) % 3];
        c.opts.enumCapPerCount = kCaps[(i / 9) % 2];
        c.seed = static_cast<std::uint64_t>(pick.uniformInt(0, 1 << 30));
        c.capped = false;
        for (int segs = 2; segs <= std::min(c.maxSegs, len); ++segs) {
            if (reference::choose(len - 1, segs - 1) >
                c.opts.enumCapPerCount)
                c.capped = true;
        }
        c.wide = c.capped && len - 1 > 64;
        return c;
    }

    /** Ranks `c` both ways: identical survivors and stream use. */
    void
    expectMatchesReference(const Config& c, int i) const
    {
        Rng refRng(c.seed);
        Rng rng(c.seed);
        const auto expected = reference::rankSegmentations(
            *db_, c.model, c.range, c.maxSegs, c.target, c.opts, refRng);
        const auto actual = rankSegmentations(
            *db_, c.model, c.range, c.maxSegs, c.target, c.opts, rng);
        ASSERT_EQ(actual.size(), expected.size()) << "config " << i;
        for (std::size_t k = 0; k < actual.size(); ++k) {
            ASSERT_TRUE(sameSegments(actual[k], expected[k]))
                << "config " << i << " rank " << k;
        }
        // Equal entropy use: the caller's stream continues identically.
        EXPECT_EQ(rng.uniformInt(0, 1 << 30),
                  refRng.uniformInt(0, 1 << 30))
            << "config " << i;
    }

    Scenario sc_;
    Mcm mcm_;
    std::unique_ptr<CostDb> db_;
};

TEST_F(RankOracle, StreamingRankMatchesMaterializingReference)
{
    Rng pick(2024);
    int capped = 0;
    int wide = 0;
    for (int i = 0; i < 270; ++i) {
        const Config c = config(i, pick);
        capped += c.capped ? 1 : 0;
        wide += c.wide ? 1 : 0;
        expectMatchesReference(c, i);
    }
    // The sampled branch (random picks, dedup, attempt cap) is covered,
    // with one-word and multi-word pick bitmaps.
    EXPECT_GE(capped, 60);
    EXPECT_GE(wide, 3);
}

TEST_F(RankOracle, EaShapedRankMatchesMaterializingReference)
{
    Rng pick(6636);
    int capped = 0;
    int wide = 0;
    for (int i = 0; i < 36; ++i) {
        const Config c = eaConfig(i, pick);
        capped += c.capped ? 1 : 0;
        wide += c.wide ? 1 : 0;
        expectMatchesReference(c, i);
    }
    // Nearly all sample, some with multi-word pick bitmaps.
    EXPECT_GE(capped, 30);
    EXPECT_GE(wide, 3);
}

// The ranking skips the exact score of a candidate whose lower bound
// cannot enter its lists. The bound must never be above the score —
// or the skip could drop a survivor — and on capped configurations,
// where the lists fill early, most candidates must take the skip.
TEST_F(RankOracle, BoundNeverExceedsScoreAndSkipsOnCappedConfigs)
{
    Rng pick(2028);
    int capped = 0;
    for (int i = 0; i < 270 + 36; ++i) {
        const bool ea = i >= 270;
        const Config c = ea ? eaConfig(i - 270, pick) : config(i, pick);
        Rng boundRng(c.seed);
        Rng scoreRng(c.seed);
        const auto bounds =
            detail::quickBounds(*db_, c.model, c.range, c.maxSegs,
                                c.opts.enumCapPerCount, c.target, boundRng);
        const auto scores =
            detail::quickScores(*db_, c.model, c.range, c.maxSegs,
                                c.opts.enumCapPerCount, c.target, scoreRng);
        ASSERT_EQ(bounds.size(), scores.size()) << "config " << i;
        for (std::size_t k = 0; k < scores.size(); ++k) {
            ASSERT_LE(bounds[k], scores[k])
                << "config " << i << " candidate " << k;
            // Tight enough to skip: the margin is a few ulps' worth.
            ASSERT_GE(bounds[k], scores[k] * (1.0 - 1e-9))
                << "config " << i << " candidate " << k;
        }

        obs::SearchCounters counters;
        db_->setCounters(&counters);
        Rng rng(c.seed);
        rankSegmentations(*db_, c.model, c.range, c.maxSegs, c.target,
                          c.opts, rng);
        db_->setCounters(nullptr);
        const std::int64_t visited = counters.segCandidates.load();
        const std::int64_t scored = counters.segScored.load();
        EXPECT_EQ(visited, static_cast<std::int64_t>(scores.size()))
            << "config " << i;
        EXPECT_GT(scored, 0) << "config " << i;
        EXPECT_LE(scored, visited) << "config " << i;
        if (ea && c.capped) {
            ++capped;
            EXPECT_LT(scored, visited) << "config " << i;
        }
    }
    EXPECT_GE(capped, 30);
}

TEST_F(RankOracle, EnumerationAndScoresMatchReferenceBitForBit)
{
    Rng pick(77);
    for (int i = 0; i < 120; ++i) {
        const Config c = config(i, pick);
        Rng refRng(c.seed);
        Rng enumRng(c.seed);
        Rng scoreRng(c.seed);
        const auto expected = reference::enumerateSegmentations(
            c.range, c.maxSegs, c.opts.enumCapPerCount, refRng);
        const auto actual = enumerateSegmentations(
            c.range, c.maxSegs, c.opts.enumCapPerCount, enumRng);
        ASSERT_EQ(actual.size(), expected.size()) << "config " << i;
        // The scores the streaming ranker computes, candidate by
        // candidate, with its leading-segment reuse.
        const auto streamed =
            detail::quickScores(*db_, c.model, c.range, c.maxSegs,
                        c.opts.enumCapPerCount, c.target, scoreRng);
        ASSERT_EQ(streamed.size(), expected.size()) << "config " << i;
        for (std::size_t k = 0; k < expected.size(); ++k) {
            ASSERT_TRUE(sameSegments(actual[k], expected[k]))
                << "config " << i << " candidate " << k;
            const double ref =
                reference::quickScore(*db_, c.model, expected[k], c.target);
            ASSERT_TRUE(sameBits(
                quickScore(*db_, c.model, expected[k], c.target), ref))
                << "config " << i << " candidate " << k;
            ASSERT_TRUE(sameBits(streamed[k], ref))
                << "config " << i << " candidate " << k;
        }
        const int next = refRng.uniformInt(0, 1 << 30);
        EXPECT_EQ(enumRng.uniformInt(0, 1 << 30), next);
        EXPECT_EQ(scoreRng.uniformInt(0, 1 << 30), next);
    }
}

} // namespace
} // namespace scar
