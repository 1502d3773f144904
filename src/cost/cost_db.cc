#include "cost/cost_db.h"
#include <algorithm>
#include <cstring>
#include <future>
#include <mutex>
#include <unordered_map>

#include "common/error.h"
#include "common/units.h"

namespace scar
{

namespace
{

/**
 * Builds one model's table set. Pure: the result depends only on the
 * arguments, never on the scenario mix — the precondition for sharing
 * the tables across CostDb instances.
 */
std::shared_ptr<const ModelCostTables>
buildModelTables(const Model& mod,
                 const std::array<ChipletSpec, kNumDataflows>& specs,
                 double l2Budget, int fixedMiniBatch,
                 const MaestroLite& model)
{
    auto tables = std::make_shared<ModelCostTables>();

    int capacityMiniBatch = 1;
    if (fixedMiniBatch > 0) {
        capacityMiniBatch = std::min(fixedMiniBatch, mod.batch);
    } else {
        double maxAct = 1.0;
        for (const Layer& layer : mod.layers) {
            maxAct = std::max(maxAct, layer.inputBytes() +
                                          layer.outputBytes());
        }
        const int capacityBatch =
            std::max(1, static_cast<int>(l2Budget / maxAct));
        capacityMiniBatch = std::min(mod.batch, capacityBatch);
    }
    tables->miniBatches.push_back(capacityMiniBatch);
    if (capacityMiniBatch > 1 && fixedMiniBatch == 0)
        tables->miniBatches.push_back(1); // streaming candidate

    const std::size_t numLayers = mod.layers.size();
    tables->costs.resize(tables->miniBatches.size());
    for (std::size_t bi = 0; bi < tables->miniBatches.size(); ++bi) {
        tables->costs[bi].resize(numLayers);
        for (std::size_t l = 0; l < numLayers; ++l) {
            for (Dataflow df : kAllDataflows) {
                tables->costs[bi][l][dataflowIndex(df)] =
                    model.evalLayer(mod.layers[l],
                                    specs[dataflowIndex(df)],
                                    tables->miniBatches[bi]);
            }
        }
    }

    // ---- O(1) range tables over the per-layer costs ---------------
    const std::size_t triSize = numLayers * (numLayers + 1) / 2;
    tables->rangeSums.resize(tables->miniBatches.size());
    for (std::size_t bi = 0; bi < tables->miniBatches.size(); ++bi) {
        const int bPrime = tables->miniBatches[bi];
        for (Dataflow df : kAllDataflows) {
            ModelCostTables::RangeSums& sums =
                tables->rangeSums[bi][dataflowIndex(df)];
            sums.cycles.resize(triSize);
            sums.energyNj.resize(triSize);
            std::size_t rowStart = 0;
            for (std::size_t f = 0; f < numLayers; ++f) {
                // Accumulate in the exact order (and with the
                // exact expression) of the per-segment loop this
                // table replaces, so lookups are bit-identical.
                double cycles = 0.0;
                double energy = 0.0;
                std::size_t idx = rowStart;
                for (std::size_t l = f; l < numLayers; ++l, ++idx) {
                    const LayerCost& lc =
                        tables->costs[bi][l][dataflowIndex(df)];
                    cycles += lc.intraCycles() * bPrime;
                    energy += lc.intraEnergyNj * bPrime;
                    sums.cycles[idx] = cycles;
                    sums.energyNj[idx] = energy;
                }
                rowStart += numLayers - f;
            }
        }
    }

    // Weight bytes are integer-valued (see common/units.h), so
    // plain prefix sums subtract exactly.
    tables->weightPrefix.assign(numLayers + 1, 0.0);
    for (std::size_t l = 0; l < numLayers; ++l) {
        tables->weightPrefix[l + 1] =
            tables->weightPrefix[l] + mod.layers[l].weightBytes();
    }

    // Sparse table over the per-sample activation footprint.
    std::vector<std::vector<double>>& table = tables->actMax;
    table.emplace_back(numLayers);
    for (std::size_t l = 0; l < numLayers; ++l) {
        table[0][l] =
            mod.layers[l].inputBytes() + mod.layers[l].outputBytes();
    }
    for (std::size_t span = 2; span <= numLayers; span *= 2) {
        const std::vector<double>& prev = table.back();
        std::vector<double> level(numLayers - span + 1);
        for (std::size_t i = 0; i + span <= numLayers; ++i)
            level[i] = std::max(prev[i], prev[i + span / 2]);
        table.push_back(std::move(level));
    }

    return tables;
}

/**
 * Content key for one model's table set: FNV-1a over the bit patterns
 * of every input buildModelTables consumes. Layer names/ids are
 * excluded — evalLayer prices dims and type only. 64 bits against a
 * catalog of at most a few thousand distinct models makes an
 * accidental collision vanishingly unlikely.
 */
std::uint64_t
tableKey(const Model& mod,
         const std::array<ChipletSpec, kNumDataflows>& specs,
         double l2Budget, int fixedMiniBatch, const MaestroLite& model)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mixBytes = [&h](const void* p, std::size_t n) {
        const unsigned char* bytes =
            static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ bytes[i]) * 1099511628211ull;
    };
    const auto mixI64 = [&](std::int64_t v) { mixBytes(&v, sizeof v); };
    const auto mixD = [&](double v) { mixBytes(&v, sizeof v); };

    mixI64(fixedMiniBatch);
    mixD(l2Budget);
    mixD(model.energyParams().macPj);
    mixD(model.energyParams().l2PjPerByte);
    for (Dataflow df : kAllDataflows) {
        const ChipletSpec& spec = specs[dataflowIndex(df)];
        mixI64(static_cast<std::int64_t>(spec.dataflow));
        mixI64(spec.numPes);
        mixD(spec.bwNocGBps);
        mixD(spec.bwMemGBps);
        mixD(spec.l2Bytes);
    }
    mixI64(mod.batch);
    mixI64(static_cast<std::int64_t>(mod.layers.size()));
    for (const Layer& layer : mod.layers) {
        mixI64(static_cast<std::int64_t>(layer.type));
        mixI64(layer.dims.k);
        mixI64(layer.dims.c);
        mixI64(layer.dims.r);
        mixI64(layer.dims.s);
        mixI64(layer.dims.y);
        mixI64(layer.dims.x);
        mixI64(layer.dims.strideY);
        mixI64(layer.dims.strideX);
    }
    return h;
}

/**
 * Process-wide table cache. A promise/shared_future per key gives
 * exactly-once builds under concurrency: the first thread to claim a
 * key builds outside the lock while later arrivals wait on the shared
 * future — identical in shape to AsyncScheduleCache's in-flight
 * dedup, minus the virtual-time bookkeeping.
 */
struct TableCache
{
    using Future =
        std::shared_future<std::shared_ptr<const ModelCostTables>>;

    std::mutex mu;
    std::unordered_map<std::uint64_t, Future> map; // guarded by mu

    static TableCache&
    instance()
    {
        static TableCache cache;
        return cache;
    }
};

/** Backstop against unbounded growth over a very long process. */
constexpr std::size_t kTableCacheCap = 1024;

template <typename BuildFn>
std::shared_ptr<const ModelCostTables>
cachedTables(std::uint64_t key, bool& wasHit, BuildFn&& build)
{
    TableCache& cache = TableCache::instance();
    TableCache::Future fut;
    std::promise<std::shared_ptr<const ModelCostTables>> prom;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        auto it = cache.map.find(key);
        if (it != cache.map.end()) {
            fut = it->second;
            wasHit = true;
        } else {
            if (cache.map.size() >= kTableCacheCap)
                cache.map.clear(); // shared_ptrs in use stay valid
            fut = prom.get_future().share();
            cache.map.emplace(key, fut);
            wasHit = false;
            builder = true;
        }
    }
    if (builder) {
        try {
            prom.set_value(build());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(cache.mu);
                cache.map.erase(key);
            }
            prom.set_exception(std::current_exception());
            throw;
        }
    }
    return fut.get();
}

} // namespace

CostDb::CostDb(const Scenario& scenario, const Mcm& mcm, MaestroLite model,
               CostDbOptions options)
    : scenario_(scenario), mcm_(mcm),
      offchipBpc_(gbpsToBytesPerCycle(mcm.params().bwOffchipGBps)),
      dramLatencyCycles_(nsToCycles(mcm.params().dramLatencyNs))
{
    const int numChiplets = mcm.numChiplets();
    std::array<ChipletSpec, kNumDataflows> specs{};
    for (Dataflow df : kAllDataflows) {
        classWeight_[dataflowIndex(df)] =
            static_cast<double>(mcm.numWithDataflow(df)) / numChiplets;
        specs[dataflowIndex(df)] = mcm.specForDataflow(df);
    }

    const double l2Budget = mcm.chiplets().front().spec.l2Bytes / 2.0;
    tables_.reserve(scenario.models.size());
    for (const Model& mod : scenario.models) {
        bool wasHit = false;
        tables_.push_back(cachedTables(
            tableKey(mod, specs, l2Budget, options.fixedMiniBatch, model),
            wasHit, [&] {
                return buildModelTables(mod, specs, l2Budget,
                                        options.fixedMiniBatch, model);
            }));
        ++(wasHit ? tableStats_.hits : tableStats_.misses);
    }
}

void
CostDb::clearTableCache()
{
    TableCache& cache = TableCache::instance();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.map.clear();
}

std::size_t
CostDb::triIndex(int model, int first, int last) const
{
    // Packed upper triangle: rows are `first`, columns run from
    // `first` to L-1; row f starts after the f longer rows before it.
    const std::size_t numLayers =
        scenario_.models[model].layers.size();
    const std::size_t f = static_cast<std::size_t>(first);
    return f * numLayers - f * (f - 1) / 2 +
           static_cast<std::size_t>(last - first);
}

int
CostDb::miniBatchIndex(int model, int bPrime) const
{
    SCAR_ASSERT(model >= 0 &&
                    model < static_cast<int>(tables_.size()),
                "bad model index ", model);
    const auto& candidates = tables_[model]->miniBatches;
    for (std::size_t bi = 0; bi < candidates.size(); ++bi) {
        if (candidates[bi] == bPrime)
            return static_cast<int>(bi);
    }
    panic("mini-batch ", bPrime, " not cached for model ", model);
}

double
CostDb::segmentCycles(int model, int bIdx, Dataflow df, int first,
                      int last) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbRangeQueries);
    return tables_[model]->rangeSums[bIdx][dataflowIndex(df)]
        .cycles[triIndex(model, first, last)];
}

double
CostDb::segmentEnergyNj(int model, int bIdx, Dataflow df, int first,
                        int last) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbRangeQueries);
    return tables_[model]->rangeSums[bIdx][dataflowIndex(df)]
        .energyNj[triIndex(model, first, last)];
}

double
CostDb::segmentWeightBytes(int model, int first, int last) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbRangeQueries);
    const std::vector<double>& prefix = tables_[model]->weightPrefix;
    return prefix[last + 1] - prefix[first];
}

double
CostDb::segmentMaxActBytes(int model, int first, int last) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbRangeQueries);
    const std::vector<std::vector<double>>& table =
        tables_[model]->actMax;
    const unsigned len = static_cast<unsigned>(last - first + 1);
    // floor(log2(len)) via the leading-zero count; len >= 1 always.
    const int level =
        31 - __builtin_clz(len);
    const std::size_t span = std::size_t{1} << level;
    return std::max(table[level][first],
                    table[level][last + 1 - span]);
}

const std::vector<int>&
CostDb::miniBatchCandidates(int model) const
{
    SCAR_ASSERT(model >= 0 &&
                    model < static_cast<int>(tables_.size()),
                "bad model index ", model);
    return tables_[model]->miniBatches;
}

const LayerCost&
CostDb::costAt(int model, int layer, Dataflow df, int bPrime) const
{
    SCAR_ASSERT(model >= 0 &&
                    model < static_cast<int>(tables_.size()),
                "bad model index ", model);
    const auto& candidates = tables_[model]->miniBatches;
    for (std::size_t bi = 0; bi < candidates.size(); ++bi) {
        if (candidates[bi] == bPrime)
            return tables_[model]->costs[bi][layer][dataflowIndex(df)];
    }
    panic("mini-batch ", bPrime, " not cached for model ", model);
}

int
CostDb::miniBatch(int model) const
{
    SCAR_ASSERT(model >= 0 &&
                    model < static_cast<int>(tables_.size()),
                "bad model index ", model);
    return tables_[model]->miniBatches.front();
}

const LayerCost&
CostDb::cost(int model, int layer, Dataflow df) const
{
    SCAR_ASSERT(model >= 0 &&
                    model < static_cast<int>(tables_.size()),
                "bad model index ", model);
    SCAR_ASSERT(layer >= 0 &&
                    layer < static_cast<int>(
                                tables_[model]->costs[0].size()),
                "bad layer index ", layer, " for model ", model);
    // Default view: the capacity-derived mini-batch (candidate 0).
    return tables_[model]->costs[0][layer][dataflowIndex(df)];
}

double
CostDb::layerCycles(int model, int layer, Dataflow df) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbLayerQueries);
    const LayerCost& lc = cost(model, layer, df);
    // Per-sample view: intra-chiplet pipeline plus weight streaming.
    return lc.intraCycles() + lc.weightBytes / offchipBpc_ +
           dramLatencyCycles_;
}

double
CostDb::layerEnergyNj(int model, int layer, Dataflow df) const
{
    obs::SearchCounters::bump(counters_,
                              &obs::SearchCounters::costDbLayerQueries);
    const LayerCost& lc = cost(model, layer, df);
    const double dramNj =
        pjToNj(lc.weightBytes * 8.0 * mcm_.params().dramEnergyPjPerBit);
    return lc.intraEnergyNj + dramNj;
}

double
CostDb::expectedLayerCycles(int model, int layer) const
{
    double expected = 0.0;
    for (Dataflow df : kAllDataflows) {
        const double w = classWeight_[dataflowIndex(df)];
        if (w > 0.0)
            expected += w * layerCycles(model, layer, df);
    }
    return expected;
}

double
CostDb::expectedLayerEnergyNj(int model, int layer) const
{
    double expected = 0.0;
    for (Dataflow df : kAllDataflows) {
        const double w = classWeight_[dataflowIndex(df)];
        if (w > 0.0)
            expected += w * layerEnergyNj(model, layer, df);
    }
    return expected;
}

} // namespace scar
