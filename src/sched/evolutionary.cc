#include "sched/evolutionary.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/error.h"

namespace scar
{

namespace
{

constexpr int kPopulation = 10;
constexpr int kGenerations = 4;
constexpr double kCrossoverProb = 0.5; ///< per-model genome exchange
constexpr double kMutationProb = 0.4;  ///< per-model split perturbation
constexpr int kEliteCount = 2;         ///< genomes carried over unchanged
static_assert(kEliteCount < kPopulation,
              "elite count must be below population");

} // namespace

EvolutionaryWindowSearch::EvolutionaryWindowSearch(
    const CostDb& db, OptTarget target, WindowSearchOptions schedOpts)
    : db_(db), target_(target), scheduler_(db, target, schedOpts),
      pool_(schedOpts.pool), counters_(schedOpts.counters)
{
}

EvolutionaryWindowSearch::Genome
EvolutionaryWindowSearch::randomGenome(const std::vector<int>& present,
                                       const WindowAssignment& wa,
                                       const NodeAllocation& nodes,
                                       Rng& rng) const
{
    Genome genome;
    for (int m : present) {
        const int layers = wa.perModel[m].size();
        const int maxSegs = std::min(nodes[m], layers);
        const int numSegs = rng.uniformInt(1, maxSegs);
        std::set<int> picks;
        while (static_cast<int>(picks.size()) < numSegs - 1)
            picks.insert(rng.uniformInt(0, layers - 2));
        genome.emplace_back(picks.begin(), picks.end());
    }
    return genome;
}

void
EvolutionaryWindowSearch::mutate(Genome& genome,
                                 const std::vector<int>& present,
                                 const WindowAssignment& wa,
                                 const NodeAllocation& nodes,
                                 Rng& rng) const
{
    for (std::size_t i = 0; i < genome.size(); ++i) {
        if (!rng.chance(kMutationProb))
            continue;
        const int m = present[i];
        const int layers = wa.perModel[m].size();
        const int maxSplits = std::min(nodes[m], layers) - 1;
        std::set<int> splits(genome[i].begin(), genome[i].end());
        const int op = rng.uniformInt(0, 2);
        if (op == 0 && static_cast<int>(splits.size()) < maxSplits &&
            layers >= 2) {
            splits.insert(rng.uniformInt(0, layers - 2));
        } else if (op == 1 && !splits.empty()) {
            auto it = splits.begin();
            std::advance(it, rng.index(splits.size()));
            splits.erase(it);
        } else if (!splits.empty() && layers >= 2) {
            auto it = splits.begin();
            std::advance(it, rng.index(splits.size()));
            const int moved =
                std::clamp(*it + (rng.chance(0.5) ? 1 : -1), 0,
                           layers - 2);
            splits.erase(it);
            splits.insert(moved);
        }
        genome[i].assign(splits.begin(), splits.end());
    }
}

std::vector<Segmentation>
EvolutionaryWindowSearch::decode(const Genome& genome,
                                 const std::vector<int>& present,
                                 const WindowAssignment& wa) const
{
    std::vector<Segmentation> segs;
    for (std::size_t i = 0; i < genome.size(); ++i) {
        const LayerRange& range = wa.perModel[present[i]];
        Segmentation seg;
        int first = range.first;
        for (int gap : genome[i]) {
            seg.segments.push_back(LayerRange{first, range.first + gap});
            first = range.first + gap + 1;
        }
        seg.segments.push_back(LayerRange{first, range.last});
        segs.push_back(std::move(seg));
    }
    return segs;
}

EvolutionaryWindowSearch::Genome
EvolutionaryWindowSearch::seedGenome(const WindowAssignment& wa,
                                     const NodeAllocation& nodes) const
{
    Genome genome;
    Rng seedRng(1);
    for (int m : WindowScheduler::presentModels(wa)) {
        const auto ranked =
            rankSegmentations(db_, m, wa.perModel[m], nodes[m], target_,
                              SegmentationOptions{}, seedRng);
        std::vector<int> splits;
        const LayerRange& range = wa.perModel[m];
        for (std::size_t k = 0; k + 1 < ranked.front().segments.size();
             ++k) {
            splits.push_back(ranked.front().segments[k].last -
                             range.first);
        }
        genome.push_back(std::move(splits));
    }
    return genome;
}

WindowScheduler::Result
EvolutionaryWindowSearch::search(const WindowAssignment& wa,
                                 const NodeAllocation& nodes,
                                 const Genome& seeded, std::uint64_t seed,
                                 const std::vector<int>& entry,
                                 PathCache* sharedPaths) const
{
    const std::vector<int> present = WindowScheduler::presentModels(wa);
    SCAR_REQUIRE(!present.empty(), "window has no layers to schedule");
    SCAR_REQUIRE(seeded.size() == present.size(),
                 "seed genome does not match the window's present models");

    Rng rng(mixSeed(seed, 0x5EEDuLL));

    struct Individual
    {
        Genome genome;
        double fitness = std::numeric_limits<double>::infinity();
        WindowScheduler::Result result;
    };

    // Seed the population: top-1 ranked segmentation + random genomes.
    std::vector<Individual> population(1);
    population.front().genome = seeded;
    while (static_cast<int>(population.size()) < kPopulation) {
        Individual ind;
        ind.genome = randomGenome(present, wa, nodes, rng);
        population.push_back(std::move(ind));
    }

    // Fitness evaluation is the expensive step (beam placement + full
    // window evaluation) and carries no RNG, so a batch of
    // individuals evaluates in parallel (each placement prices its
    // paths through its own SoloPricer). Candidate lists then merge
    // in population index order for pool-size-independent results.
    WindowScheduler::Result global;
    // The EA re-places thousands of genomes on the same topology, so
    // one path memo serves the whole run, or the caller's
    // (deterministic values; see PathCache).
    PathCache localPaths;
    localPaths.setCounters(counters_);
    PathCache& pathCache =
        sharedPaths != nullptr ? *sharedPaths : localPaths;
    auto evaluateBatch = [&](std::vector<Individual*>& batch) {
        forEachIndex(pool_, batch.size(), [&](std::size_t i) {
            Individual& ind = *batch[i];
            ind.result = scheduler_.placeSegmentations(
                present, decode(ind.genome, present, wa), entry,
                &pathCache);
            ind.fitness = ind.result.found()
                              ? ind.result.best().score
                              : std::numeric_limits<double>::infinity();
        });
        for (Individual* ind : batch) {
            global.top.insert(global.top.end(), ind->result.top.begin(),
                              ind->result.top.end());
        }
    };

    {
        std::vector<Individual*> batch;
        for (Individual& ind : population)
            batch.push_back(&ind);
        evaluateBatch(batch);
    }

    auto byFitness = [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
    };

    for (int gen = 1; gen < kGenerations; ++gen) {
        obs::SearchCounters::bump(counters_,
                                  &obs::SearchCounters::eaGenerations);
        std::stable_sort(population.begin(), population.end(),
                         byFitness);
        std::vector<Individual> next(
            population.begin(), population.begin() + kEliteCount);
        auto tournament = [&]() -> const Individual& {
            const Individual& a = population[rng.index(population.size())];
            const Individual& b = population[rng.index(population.size())];
            return a.fitness < b.fitness ? a : b;
        };
        // Selection/crossover/mutation only read the previous
        // generation's fitness, so all children are bred first (one
        // serial RNG stream) and evaluated as one parallel batch.
        while (static_cast<int>(next.size()) < kPopulation) {
            Individual child;
            child.genome = tournament().genome;
            if (rng.chance(kCrossoverProb)) {
                const Individual& other = tournament();
                for (std::size_t i = 0; i < child.genome.size(); ++i) {
                    if (rng.chance(0.5))
                        child.genome[i] = other.genome[i];
                }
            }
            mutate(child.genome, present, wa, nodes, rng);
            next.push_back(std::move(child));
        }
        std::vector<Individual*> batch;
        for (std::size_t i = kEliteCount; i < next.size(); ++i)
            batch.push_back(&next[i]);
        evaluateBatch(batch);
        population = std::move(next);
    }

    // Exact under the stable order: an entry of Scar::run's merged
    // top list is also in its own allocation's top kMaxTopCandidates.
    keepTop(global.top);
    return global;
}

} // namespace scar
