#include "eval/reporter.h"

#include <sstream>

#include "common/table.h"
#include "common/units.h"

namespace scar
{

std::string
describeSchedule(const Scenario& scenario, const Mcm& mcm,
                 const ScheduleResult& result)
{
    std::ostringstream out;
    out << "Schedule for " << scenario.name << " on " << mcm.name()
        << "\n";
    double cumulative = 0.0;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
        const ScheduledWindow& sw = result.windows[w];
        cumulative += cyclesToSeconds(sw.cost.latencyCycles);
        out << "Window " << w << " (cumulative "
            << TextTable::num(cumulative, 3) << " s):\n";
        for (const ModelPlacement& mp : sw.placement.models) {
            const Model& model = scenario.models[mp.modelIdx];
            out << "  " << model.name << ":";
            for (const PlacedSegment& seg : mp.segments) {
                const Chiplet& c = mcm.chiplet(seg.chiplet);
                out << "  L[" << seg.range.first << ".."
                    << seg.range.last << "]->chpl" << seg.chiplet << "("
                    << dataflowName(c.spec.dataflow) << ")";
            }
            out << "\n";
        }
    }
    out << "Totals: latency " << TextTable::num(result.metrics.latencySec, 4)
        << " s, energy " << TextTable::num(result.metrics.energyJ, 4)
        << " J, EDP " << TextTable::num(result.metrics.edp(), 4)
        << " J*s\n";
    return out.str();
}

std::string
describeWindowBreakdown(const Scenario& scenario,
                        const ScheduleResult& result)
{
    const std::size_t numWindows = result.windows.size();
    std::vector<std::string> headers{"Model"};
    for (std::size_t w = 0; w < numWindows; ++w)
        headers.push_back("W" + std::to_string(w));
    headers.push_back("ideal tot");
    headers.push_back("#layers");
    TextTable table(std::move(headers));

    for (int m = 0; m < scenario.numModels(); ++m) {
        std::vector<std::string> row{scenario.models[m].name};
        double ideal = 0.0;
        int layers = 0;
        for (const ScheduledWindow& sw : result.windows) {
            double lat = 0.0;
            for (std::size_t i = 0; i < sw.placement.models.size(); ++i) {
                if (sw.placement.models[i].modelIdx == m) {
                    lat = sw.cost.perModel[i].latencyCycles;
                    break;
                }
            }
            ideal += cyclesToSeconds(lat);
            layers += sw.assignment.perModel[m].size();
            row.push_back(TextTable::num(cyclesToSeconds(lat), 3));
        }
        row.push_back(TextTable::num(ideal, 3));
        row.push_back(std::to_string(layers));
        table.addRow(std::move(row));
    }

    table.addSeparator();
    std::vector<std::string> winRow{"Window"};
    double total = 0.0;
    for (const ScheduledWindow& sw : result.windows) {
        winRow.push_back(
            TextTable::num(cyclesToSeconds(sw.cost.latencyCycles), 3));
        total += cyclesToSeconds(sw.cost.latencyCycles);
    }
    winRow.push_back(TextTable::num(total, 3));
    winRow.push_back(std::to_string(scenario.totalLayers()));
    table.addRow(std::move(winRow));

    return table.render();
}

std::string
describeServingReport(const runtime::ServingReport& report)
{
    std::ostringstream out;
    out << "Serving report (" << report.offered << " offered, "
        << report.completed << " completed, " << report.dispatches
        << " dispatches over "
        << TextTable::num(report.horizonSec, 3) << " s)\n";

    TextTable table({"Metric", "Value"});
    table.addRow({"Throughput (req/s)",
                  TextTable::num(report.throughputRps, 2)});
    table.addRow({"Latency mean (s)",
                  TextTable::num(report.meanLatencySec, 4)});
    table.addRow({"Latency p50 (s)",
                  TextTable::num(report.p50LatencySec, 4)});
    table.addRow({"Latency p95 (s)",
                  TextTable::num(report.p95LatencySec, 4)});
    table.addRow({"Latency p99 (s)",
                  TextTable::num(report.p99LatencySec, 4)});
    table.addRow({"Latency max (s)",
                  TextTable::num(report.maxLatencySec, 4)});
    table.addRow({"SLO violations",
                  std::to_string(report.sloViolations) + " (" +
                      TextTable::num(report.sloViolationRate * 100.0,
                                     2) +
                      "%)"});
    table.addSeparator();
    table.addRow({"Schedule searches (cache misses)",
                  std::to_string(report.cache.misses)});
    table.addRow({"Schedule cache hits",
                  std::to_string(report.cache.hits)});
    table.addRow({"Schedule cache hit rate",
                  TextTable::num(report.cache.hitRate() * 100.0, 2) +
                      "%"});
    table.addRow({"Unique mixes scheduled",
                  std::to_string(report.uniqueMixes)});
    table.addRow({"Batch occupancy",
                  TextTable::num(report.batchOccupancy * 100.0, 1) +
                      "%"});
    table.addSeparator();
    table.addRow({"Solve stall (s)",
                  TextTable::num(report.solveStallSec, 4)});
    table.addRow({"Switch overhead (s)",
                  TextTable::num(report.switchOverheadSec, 4)});
    table.addRow({"Contested routes",
                  std::to_string(report.contestedRoutes)});
    table.addRow({"Cost-optimal routes",
                  std::to_string(report.costOptimalRoutes) + " (" +
                      TextTable::num(
                          report.costOptimalRouteFrac * 100.0, 1) +
                      "%)"});
    // Preemption rows (and the per-shard column below) only render
    // when the feature was on: a run with preemption disabled must
    // report byte-identically to the non-preemptive runtime.
    if (report.preemptionEnabled) {
        table.addSeparator();
        table.addRow({"Boundary preemptions",
                      std::to_string(report.preemptions)});
        table.addRow({"Resume overhead (s)",
                      TextTable::num(report.resumeOverheadSec, 4)});
        table.addRow({"Preempted requests",
                      std::to_string(report.preemptedRequests)});
        table.addRow({"Preempted p99 (s)",
                      TextTable::num(report.preemptedP99Sec, 4)});
    }
    // Autoregressive rows render only when the catalog served an LLM
    // entry: non-LLM runs must report byte-identically to the
    // pre-LLM format.
    if (report.llmEnabled) {
        table.addSeparator();
        table.addRow({"LLM requests",
                      std::to_string(report.llmRequests)});
        table.addRow({"Decode rounds",
                      std::to_string(report.llmDecodeRounds)});
        table.addRow({"Continuous-batching joins",
                      std::to_string(report.llmJoins)});
        table.addRow({"Decode batch mean",
                      TextTable::num(report.llmMeanDecodeBatch, 2)});
        table.addRow({"TTFT mean (s)",
                      TextTable::num(report.meanTtftSec, 4)});
        table.addRow({"TTFT p99 (s)",
                      TextTable::num(report.p99TtftSec, 4)});
        table.addRow({"TPOT mean (s)",
                      TextTable::num(report.meanTpotSec, 4)});
        table.addRow({"Gen tokens/s",
                      TextTable::num(report.genTokensPerSec, 1)});
    }
    out << table.render();

    // Queue-wait vs execution split per model: which component an SLO
    // miss is charged to (batching/routing vs schedule/preemption).
    // Only the model-aware summarize fills perModel, so reports built
    // through the legacy path render unchanged.
    if (!report.perModel.empty()) {
        out << "\nPer-model latency breakdown ("
            << report.perModel.size() << " model"
            << (report.perModel.size() == 1 ? "" : "s")
            << ", queue-wait vs execution)\n";
        TextTable modelTable(
            {"Model", "Completed", "SLO miss", "Mean (s)", "p50 (s)",
             "p95 (s)", "p99 (s)", "Queue p50/p95/p99 (s)",
             "Exec p50/p95/p99 (s)"});
        for (const runtime::ModelServingBreakdown& mb :
             report.perModel) {
            modelTable.addRow(
                {mb.name, std::to_string(mb.completed),
                 std::to_string(mb.sloViolations),
                 TextTable::num(mb.meanLatencySec, 4),
                 TextTable::num(mb.p50LatencySec, 4),
                 TextTable::num(mb.p95LatencySec, 4),
                 TextTable::num(mb.p99LatencySec, 4),
                 TextTable::num(mb.p50QueueSec, 4) + "/" +
                     TextTable::num(mb.p95QueueSec, 4) + "/" +
                     TextTable::num(mb.p99QueueSec, 4),
                 TextTable::num(mb.p50ExecSec, 4) + "/" +
                     TextTable::num(mb.p95ExecSec, 4) + "/" +
                     TextTable::num(mb.p99ExecSec, 4)});
        }
        out << modelTable.render();
    }

    if (!report.shards.empty()) {
        out << "\nPer-shard utilization ("
            << report.shards.size() << " package"
            << (report.shards.size() == 1 ? "" : "s") << ")\n";
        std::vector<std::string> shardHeaders{
            "Shard", "Template", "Dispatches", "Busy (s)",
            "Utilization", "Solve stall (s)", "Switch ovh (s)"};
        if (report.preemptionEnabled)
            shardHeaders.push_back("Preempt");
        TextTable shardTable(std::move(shardHeaders));
        for (const runtime::ShardReport& shard : report.shards) {
            std::vector<std::string> row{
                std::to_string(shard.shardIdx), shard.mcmName,
                std::to_string(shard.dispatches),
                TextTable::num(shard.busySec, 3),
                TextTable::num(shard.utilization * 100.0, 1) + "%",
                TextTable::num(shard.solveStallSec, 4),
                TextTable::num(shard.switchOverheadSec, 4)};
            if (report.preemptionEnabled)
                row.push_back(std::to_string(shard.preemptions));
            shardTable.addRow(std::move(row));
        }
        out << shardTable.render();
    }
    return out.str();
}

} // namespace scar
