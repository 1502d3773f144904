#include "sched/segmentation.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/units.h"
#include "cost/comm_model.h"
#include "sched/segmentation_detail.h"

namespace scar
{

namespace
{

/** Builds a segmentation from sorted split gaps (split after gap g). */
Segmentation
fromSplits(const LayerRange& range, const std::vector<int>& splits)
{
    Segmentation seg;
    seg.segments.reserve(splits.size() + 1);
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

/**
 * A set of split gaps as a bitmap (bit g set = split after gap g):
 * one word per 64 gaps, and its set bits read out in sorted order.
 */
using GapBitmap = std::vector<std::uint64_t>;

/**
 * Sets `gap`; false when it was already set. Branch-free: once most
 * gaps are picked, a random draw hits a set one about as often as not.
 */
bool
setGap(GapBitmap& bitmap, int gap)
{
    std::uint64_t& word = bitmap[static_cast<std::size_t>(gap) / 64];
    const std::uint64_t before = word;
    word |= std::uint64_t{1} << (gap % 64);
    return word != before;
}

/** The set gaps of `bitmap`, ascending. */
void
gapsOf(const GapBitmap& bitmap, std::vector<int>& splits)
{
    splits.clear();
    for (std::size_t w = 0; w < bitmap.size(); ++w) {
        for (std::uint64_t bits = bitmap[w]; bits != 0; bits &= bits - 1)
            splits.push_back(static_cast<int>(w * 64) +
                             __builtin_ctzll(bits));
    }
}

/**
 * The distinct gap bitmaps sampled for one segment count: their words
 * side by side in one arena, found through an open-addressing table
 * of arena slots. Sized once for the cap, so neither an accepted
 * sample nor a new segment count allocates.
 */
class SampleSet
{
  public:
    SampleSet(std::size_t words, int cap) : words_(words)
    {
        // The balanced candidate is kept even under a cap below one.
        const std::size_t entries =
            static_cast<std::size_t>(std::max(cap, 1));
        std::size_t slots = 2;
        while (slots < 2 * entries)
            slots *= 2;
        table_.assign(slots, kEmpty);
        arena_.reserve(words_ * entries);
    }

    std::size_t size() const { return size_; }

    /** Empties the set for the next segment count. */
    void
    clear()
    {
        std::fill(table_.begin(), table_.end(), kEmpty);
        arena_.clear();
        size_ = 0;
    }

    /** Adds `bitmap`; false when it is already in the set. */
    bool
    insert(const GapBitmap& bitmap)
    {
        const std::size_t mask = table_.size() - 1;
        for (std::size_t i = hashOf(bitmap) & mask;; i = (i + 1) & mask) {
            if (table_[i] == kEmpty) {
                table_[i] = size_++;
                arena_.insert(arena_.end(), bitmap.begin(), bitmap.end());
                return true;
            }
            if (std::equal(bitmap.begin(), bitmap.end(),
                           arena_.begin() + table_[i] * words_))
                return false;
        }
    }

  private:
    static constexpr std::size_t kEmpty = ~std::size_t{0};

    static std::uint64_t
    hashOf(const GapBitmap& bitmap)
    {
        std::uint64_t h = 0;
        for (const std::uint64_t word : bitmap)
            h = mixBits(h ^ word);
        return h;
    }

    std::size_t words_;
    std::size_t size_ = 0;
    std::vector<std::size_t> table_;   ///< arena slot per entry or kEmpty
    std::vector<std::uint64_t> arena_; ///< size_ bitmaps of words_ each
};

/**
 * The one candidate generator: calls visit(splits) for every
 * segmentation of `range` into 1..maxSegs parts, as sorted local
 * split gaps, in enumeration order. Counts whose combination count
 * exceeds `capPerCount` visit the balanced candidate plus distinct
 * random samples drawn from `rng`.
 */
template <typename Visit>
void
walkSplits(const LayerRange& range, int maxSegs, int capPerCount, Rng& rng,
           Visit&& visit)
{
    SCAR_REQUIRE(!range.empty(), "cannot segment an empty range");
    SCAR_REQUIRE(maxSegs >= 1, "need at least one segment");
    const int layers = range.size();
    const int segLimit = std::min(maxSegs, layers);

    std::vector<int> splits;
    // Sampling state of the capped counts, built on the first one.
    const std::size_t words =
        (static_cast<std::size_t>(layers) - 1 + 63) / 64;
    GapBitmap picks;
    std::optional<SampleSet> seen;
    for (int numSegs = 1; numSegs <= segLimit; ++numSegs) {
        const int splitsNeeded = numSegs - 1;
        const int gaps = layers - 1;
        const double count = choose(gaps, splitsNeeded);

        if (count <= capPerCount) {
            // Full enumeration of split combinations.
            splits.resize(splitsNeeded);
            for (int i = 0; i < splitsNeeded; ++i)
                splits[i] = i;
            while (true) {
                visit(splits);
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
            picks.assign(words, 0);
            if (!seen)
                seen.emplace(words, capPerCount);
            seen->clear();
            // Always include the balanced candidate.
            splits = balancedSplits(layers, numSegs);
            for (int gap : splits)
                setGap(picks, gap);
            seen->insert(picks);
            visit(splits);
            int attempts = 0;
            while (static_cast<int>(seen->size()) < capPerCount &&
                   attempts < capPerCount * 4) {
                ++attempts;
                // Distinct picks: the draws of filling an ordered set,
                // which the bitmap keeps sorted.
                std::fill(picks.begin(), picks.end(), 0);
                for (int picked = 0; picked < splitsNeeded;)
                    picked += setGap(picks, rng.uniformInt(0, gaps - 1));
                if (!seen->insert(picks))
                    continue;
                gapsOf(picks, splits);
                visit(splits);
            }
        }
    }
}

/**
 * The Heuristic-1 placement-free pipeline score of split lists over
 * one range: expected layer cycles and energy per segment, plus a
 * 1-hop NoP handoff into every segment after the first.
 *
 * Every per-layer term is tabulated once at construction, and the
 * accumulators after each completed segment are kept, so a candidate
 * sharing its leading splits with the previous one resumes from
 * there. The sums are the same additions in the same order as the
 * plain per-layer loop, so scores are bit-identical to it whatever
 * the candidate order.
 *
 * lowerBound() prices a split list in O(segments) from prefix sums
 * of the same terms, never above score() (see there), so a ranking
 * can skip the exact O(layers) score of a candidate whose bound
 * already loses.
 */
class SplitScorer
{
  public:
    SplitScorer(const CostDb& db, int model, const LayerRange& range,
                OptTarget target)
        : target_(target), batch_(db.scenario().models[model].batch)
    {
        SCAR_REQUIRE(!range.empty(), "cannot score an empty range");
        const Model& m = db.scenario().models[model];
        const CommModel comm(db.mcm());
        const int layers = range.size();
        cycles_.resize(layers);
        energy_.resize(layers);
        handoffCycles_.resize(layers);
        handoffEnergy_.resize(layers);
        for (int i = 0; i < layers; ++i) {
            const int l = range.first + i;
            cycles_[i] = db.expectedLayerCycles(model, l);
            energy_[i] = db.expectedLayerEnergyNj(model, l) * batch_;
            // Handoff into the segment after one ending at layer l.
            const double bytes = m.layers[l].outputBytes();
            handoffCycles_[i] =
                bytes / comm.nopBytesPerCycle() + comm.hopLatencyCycles();
            handoffEnergy_[i] =
                pjToNj(bytes * 8.0 * db.mcm().params().nopEnergyPjPerBit) *
                batch_;
            // lowerBound's error analysis needs nonnegative terms.
            SCAR_ASSERT(cycles_[i] >= 0.0 && energy_[i] >= 0.0 &&
                            handoffCycles_[i] >= 0.0 &&
                            handoffEnergy_[i] >= 0.0,
                        "negative Heuristic-1 term at layer ", l);
        }
        partial_.push_back(Partial{});

        prefixCycles_.resize(layers + 1);
        prefixCycles_[0] = 0.0;
        for (int i = 0; i < layers; ++i) {
            prefixCycles_[i + 1] = prefixCycles_[i] + cycles_[i];
            layerEnergyNj_ += energy_[i];
        }
        const double n = static_cast<double>(layers) + 2.0;
        margin_ = 8.0 * n * n * std::numeric_limits<double>::epsilon();
    }

    /**
     * A lower bound on score(splits), in O(segments). Segment cycles
     * are prefix differences plus the exact handoff term, the cycle
     * sum is the whole range's plus the handoffs, and the energy is
     * the layers' total plus the handoff energies: the score's
     * quantities, summed in another order.
     *
     * Rounding margin: with n = layers + 2 and u the double epsilon,
     * score() and this bound each round every summed term (all
     * nonnegative) with a relative error of at most ~n*u of the
     * total. A prefix difference may be off by ~2n*u of the whole
     * range's cycles, and the bottleneck segment is at least the
     * range's cycles over the segment count (<= n), so the bound's
     * latency is off by at most ~2n^2*u relative, its energy by
     * ~2n*u, and their product by ~4n^2*u. Scaling the bound by
     * (1 - 8n^2*u) therefore keeps it at or below the floating-point
     * score; rankSegmentations asserts that on every exact score.
     */
    double
    lowerBound(const std::vector<int>& splits) const
    {
        const std::size_t numSplits = splits.size();
        const int lastLayer = static_cast<int>(cycles_.size()) - 1;
        double handoffCycles = 0.0;
        double handoffEnergyNj = 0.0;
        double maxSeg = 0.0;
        int first = 0;
        for (std::size_t k = 0; k <= numSplits; ++k) {
            const int last = k < numSplits ? splits[k] : lastLayer;
            double cycles = prefixCycles_[last + 1] - prefixCycles_[first];
            if (k > 0) {
                cycles += handoffCycles_[first - 1];
                handoffCycles += handoffCycles_[first - 1];
                handoffEnergyNj += handoffEnergy_[first - 1];
            }
            maxSeg = std::max(maxSeg, cycles);
            first = last + 1;
        }
        const double latCycles = prefixCycles_.back() + handoffCycles +
                                 (batch_ - 1) * maxSeg;
        const Metrics metrics{cyclesToSeconds(latCycles),
                              njToJoules(layerEnergyNj_ + handoffEnergyNj)};
        return metrics.value(target_) * (1.0 - margin_);
    }

    /** Score of the segmentation split after the local gaps `splits`. */
    double
    score(const std::vector<int>& splits)
    {
        const std::size_t numSplits = splits.size();
        std::size_t reuse = 0;
        if (numSplits == prev_.size()) {
            while (reuse < numSplits && splits[reuse] == prev_[reuse])
                ++reuse;
        }
        partial_.resize(numSplits + 1);
        Partial acc = partial_[reuse];
        int first = reuse == 0 ? 0 : splits[reuse - 1] + 1;
        const int lastLayer = static_cast<int>(cycles_.size()) - 1;
        for (std::size_t k = reuse; k <= numSplits; ++k) {
            const int last = k < numSplits ? splits[k] : lastLayer;
            double cycles = 0.0;
            for (int l = first; l <= last; ++l) {
                cycles += cycles_[l];
                acc.energyNj += energy_[l];
            }
            if (k > 0) {
                cycles += handoffCycles_[first - 1];
                acc.energyNj += handoffEnergy_[first - 1];
            }
            acc.sumCycles += cycles;
            acc.maxSeg = std::max(acc.maxSeg, cycles);
            if (k < numSplits)
                partial_[k + 1] = acc;
            first = last + 1;
        }
        prev_ = splits;

        const double latCycles =
            acc.sumCycles + (batch_ - 1) * acc.maxSeg;
        const Metrics metrics{cyclesToSeconds(latCycles),
                              njToJoules(acc.energyNj)};
        return metrics.value(target_);
    }

  private:
    /** Accumulators after a whole number of segments. */
    struct Partial
    {
        double sumCycles = 0.0;
        double maxSeg = 0.0;
        double energyNj = 0.0;
    };

    OptTarget target_;
    int batch_;
    std::vector<double> cycles_;        ///< expected cycles per layer
    std::vector<double> energy_;        ///< expected energy x batch
    std::vector<double> handoffCycles_; ///< NoP handoff after layer
    std::vector<double> handoffEnergy_; ///< its energy x batch
    std::vector<int> prev_;             ///< last scored split list
    std::vector<Partial> partial_;      ///< [k]: after k segments of prev_
    std::vector<double> prefixCycles_;  ///< [i]: cycles of layers < i
    double layerEnergyNj_ = 0.0;        ///< energy of every layer
    double margin_ = 0.0;               ///< lowerBound's relative slack
};

/** A candidate kept by the streaming selection. */
struct Ranked
{
    static constexpr std::size_t kNone = ~std::size_t{0};

    double score = 0.0;
    std::size_t index = kNone; ///< enumeration order; kNone = empty
    std::vector<int> splits;
};

/** The ranking order: score, then enumeration index. */
bool
ranksBefore(double score, std::size_t index, const Ranked& other)
{
    return score < other.score ||
           (score == other.score && index < other.index);
}

} // namespace

std::vector<Segmentation>
enumerateSegmentations(const LayerRange& range, int maxSegs,
                       int capPerCount, Rng& rng)
{
    std::vector<Segmentation> out;
    walkSplits(range, maxSegs, capPerCount, rng,
               [&](const std::vector<int>& splits) {
                   out.push_back(fromSplits(range, splits));
               });
    return out;
}

double
quickScore(const CostDb& db, int model, const Segmentation& seg,
           OptTarget target)
{
    const LayerRange covered{seg.segments.front().first,
                             seg.segments.back().last};
    std::vector<int> splits;
    for (std::size_t k = 0; k + 1 < seg.segments.size(); ++k)
        splits.push_back(seg.segments[k].last - covered.first);
    return SplitScorer(db, model, covered, target).score(splits);
}

std::vector<double>
detail::quickScores(const CostDb& db, int model, const LayerRange& range,
                    int maxSegs, int capPerCount, OptTarget target,
                    Rng& rng)
{
    SplitScorer scorer(db, model, range, target);
    std::vector<double> scores;
    walkSplits(range, maxSegs, capPerCount, rng,
               [&](const std::vector<int>& splits) {
                   scores.push_back(scorer.score(splits));
               });
    return scores;
}

std::vector<double>
detail::quickBounds(const CostDb& db, int model, const LayerRange& range,
                    int maxSegs, int capPerCount, OptTarget target,
                    Rng& rng)
{
    const SplitScorer scorer(db, model, range, target);
    std::vector<double> bounds;
    walkSplits(range, maxSegs, capPerCount, rng,
               [&](const std::vector<int>& splits) {
                   bounds.push_back(scorer.lowerBound(splits));
               });
    return bounds;
}

std::vector<Segmentation>
rankSegmentations(const CostDb& db, int model, const LayerRange& range,
                  int maxSegs, OptTarget target,
                  const SegmentationOptions& opts, Rng& rng)
{
    // One streaming pass keeps, in (score, enumeration index) order,
    // the best candidate of every segment count plus the pruneK best
    // overall (a max-heap), so memory does not grow with the number
    // of candidates. The fillers chosen below always come from those
    // pruneK: a count best takes at most one of them per count.
    //
    // A candidate enters either list only by ranking before its
    // current occupant, and it ranks after every candidate seen so
    // far on an equal score, so one whose lower bound is not below
    // the front of a full heap nor below its count's best cannot
    // enter: its exact score is skipped. It still takes its
    // enumeration index and the walk its draws, so survivors, ties
    // and the caller's stream are those of scoring every candidate.
    SplitScorer scorer(db, model, range, target);
    std::vector<Ranked> countBest; // by split count
    std::vector<Ranked> heap;
    const std::size_t heapCap =
        static_cast<std::size_t>(std::max(opts.pruneK, 0));
    heap.reserve(heapCap);
    const auto worse = [](const Ranked& a, const Ranked& b) {
        return ranksBefore(a.score, a.index, b);
    };
    std::size_t index = 0;
    std::int64_t scored = 0;
    walkSplits(range, maxSegs, opts.enumCapPerCount, rng,
               [&](const std::vector<int>& splits) {
                   const std::size_t idx = index++;
                   if (splits.size() >= countBest.size())
                       countBest.resize(splits.size() + 1);
                   Ranked& best = countBest[splits.size()];
                   const double bound = scorer.lowerBound(splits);
                   if (heap.size() == heapCap &&
                       (heapCap == 0 || bound >= heap.front().score) &&
                       best.index != Ranked::kNone && bound >= best.score)
                       return;
                   const double score = scorer.score(splits);
                   ++scored;
                   SCAR_ASSERT(bound <= score, "Heuristic-1 bound ", bound,
                               " above its score ", score);
                   const auto keep = [&](Ranked& slot) {
                       slot.score = score;
                       slot.index = idx;
                       slot.splits.assign(splits.begin(), splits.end());
                   };
                   if (best.index == Ranked::kNone ||
                       ranksBefore(score, idx, best))
                       keep(best);
                   if (heap.size() < heapCap) {
                       heap.emplace_back();
                       keep(heap.back());
                       std::push_heap(heap.begin(), heap.end(), worse);
                   } else if (heapCap > 0 &&
                              ranksBefore(score, idx, heap.front())) {
                       std::pop_heap(heap.begin(), heap.end(), worse);
                       keep(heap.back());
                       std::push_heap(heap.begin(), heap.end(), worse);
                   }
               });
    obs::SearchCounters::bump(db.counters(),
                              &obs::SearchCounters::segCandidates,
                              static_cast<std::int64_t>(index));
    obs::SearchCounters::bump(db.counters(),
                              &obs::SearchCounters::segScored, scored);

    // Per-segment-count diversity: always keep each count's best,
    // then fill by rank up to pruneK.
    std::vector<const Ranked*> picked;
    for (const Ranked& best : countBest) {
        if (best.index != Ranked::kNone)
            picked.push_back(&best);
    }
    std::sort(picked.begin(), picked.end(),
              [](const Ranked* a, const Ranked* b) {
                  return ranksBefore(a->score, a->index, *b);
              });
    std::sort_heap(heap.begin(), heap.end(), worse);
    for (const Ranked& cand : heap) {
        if (static_cast<int>(picked.size()) >= opts.pruneK)
            break;
        if (countBest[cand.splits.size()].index != cand.index)
            picked.push_back(&cand);
    }

    // Re-sort by score alone so callers see best-first order. The
    // comparator and the input order are those of the materializing
    // ranker this replaced, so equal scores keep its exact order.
    std::sort(picked.begin(), picked.end(),
              [](const Ranked* a, const Ranked* b) {
                  return a->score < b->score;
              });

    std::vector<Segmentation> top;
    top.reserve(picked.size());
    for (const Ranked* cand : picked)
        top.push_back(fromSplits(range, cand->splits));
    return top;
}

} // namespace scar
