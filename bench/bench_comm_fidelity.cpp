/**
 * @file
 * Communication-fidelity x interconnect sweep, with exit-code gates.
 *
 * Part 1 — schedule sweep at equal silicon: the four Het-Sides
 * interconnect variants (mesh / torus / express / broadcast plane;
 * identical chiplets, PEs, and memory-interface positions — only the
 * NoP differs) scheduled under both contention fidelities
 * (CommFidelity::Static, the paper's max-sharers count, and
 * CommFidelity::Phased, the time-phased M/D/1 queueing model) on a
 * congested datacenter scenario (Table IV row 4) and an AR/VR
 * scenario (Table V row 7).
 * Gate: torus or broadcast must beat the mesh on at least one metric
 * (latency / energy / EDP) in at least one sweep cell — richer
 * interconnects that never pay off at equal silicon would mean the
 * cost model is blind to them.
 *
 * Part 2 — fleet routing flip: a two-shard fleet of equal-silicon
 * packages with a single DRAM port (mesh vs broadcast plane) replays
 * one Poisson trace under BestFit routing with each fidelity. With
 * one port, every weight/spill route is multi-hop: the broadcast
 * variant serves them in one plane hop, so the static estimate
 * (which prices DRAM-side flows contention-free) always ranks it
 * ahead of the mesh — while the phased model aggregates all of that
 * traffic onto the single shared medium and sees the plane saturate.
 * Gate: the fidelity switch must flip at least one routing decision
 * (per-shard dispatch counts differ between the two runs).
 *
 * Part 3 — determinism: the phased fleet run repeats on a 1-thread
 * and an 8-thread solver pool; both rendered ServingReports are
 * dumped to bench_results/comm_fidelity_report_{serial,parallel}.txt,
 * the bench exits nonzero if they differ by a byte, and CI cmp's the
 * dumps again.
 *
 * Env knobs (bench-smoke CI shrinks the run through these):
 *  - SCAR_BENCH_COMM_SCENARIOS: schedule-sweep scenarios (default 2)
 *  - SCAR_BENCH_COMM_REQUESTS: fleet trace length (default 240)
 *
 * Raw series: bench_results/comm_fidelity.csv (columns documented in
 * bench/README.md).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "cost/comm_model.h"
#include "eval/reporter.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"

namespace
{

using namespace scar;
using namespace scar::runtime;

struct TopoVariant
{
    std::string name;
    Mcm mcm;
};

std::vector<TopoVariant>
variants(int pes)
{
    std::vector<TopoVariant> v;
    v.push_back({"mesh", templates::hetSides3x3(pes)});
    v.push_back({"torus", templates::hetSidesTorus3x3(pes)});
    v.push_back({"express", templates::hetSidesExpress3x3(pes)});
    v.push_back({"broadcast", templates::hetSidesBroadcast3x3(pes)});
    return v;
}

const char*
fidelityName(CommFidelity fidelity)
{
    return fidelity == CommFidelity::Static ? "static" : "phased";
}

/** Largest M/D/1 factor any window of the schedule applied. */
double
maxQueueFactor(const ScheduleResult& result)
{
    double worst = 1.0;
    for (const ScheduledWindow& w : result.windows)
        worst = std::max(worst, w.cost.maxQueueFactor);
    return worst;
}

/** Catalog mixing DRAM-heavy and activation-heavy AR/VR models — the
 *  traffic blend whose routing estimates the two fidelities rank
 *  differently. */
std::vector<ServedModel>
fleetCatalog()
{
    std::vector<ServedModel> catalog(3);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 12.0;
    catalog[0].sloSec = 0.5;
    catalog[1].model = zoo::googleNet(2);
    catalog[1].rateRps = 6.0;
    catalog[1].sloSec = 1.0;
    catalog[2].model = zoo::handSP(2);
    catalog[2].rateRps = 8.0;
    catalog[2].sloSec = 0.5;
    return catalog;
}

/**
 * Equal-silicon flip packages: Het-Sides chiplets with ONE DRAM port
 * (chiplet 0) so every weight/spill route is multi-hop, on a plain
 * mesh vs a package-wide broadcast plane. Only the interconnect
 * differs between the two.
 */
Mcm
onePortPackage(bool broadcast)
{
    std::vector<Chiplet> chiplets;
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            Chiplet c;
            c.id = y * 3 + x;
            c.x = x;
            c.y = y;
            c.memInterface = (c.id == 0);
            c.spec.dataflow =
                (x == 1) ? Dataflow::ShiOS : Dataflow::NvdlaWS;
            c.spec.numPes = templates::kArvrPes;
            chiplets.push_back(c);
        }
    }
    Topology topo =
        broadcast
            ? Topology::broadcastMesh(3, 3,
                                      {0, 1, 2, 3, 4, 5, 6, 7, 8})
            : Topology::mesh(3, 3);
    return Mcm(broadcast ? "HetSides-1port-bcast" : "HetSides-1port",
               std::move(chiplets), std::move(topo));
}

ServingReport
runFleet(const std::vector<ServedModel>& catalog,
         const std::vector<Request>& trace, CommFidelity fidelity,
         ThreadPool& solverPool)
{
    FleetOptions options;
    options.shardTemplates = {onePortPackage(false),
                              onePortPackage(true)};
    options.routing = RoutingPolicy::BestFit;
    options.serving.pool = &solverPool;
    options.serving.scar.eval.fidelity = fidelity;
    options.serving.modeledSolveSec = 0.01;
    options.serving.switchOverheadSec = 0.002;
    // The default batching delay (0.05 s) lets multi-model mixes
    // form — the mixes whose estimates the two fidelities rank
    // differently (single-model mixes tie on both shards).
    options.serving.admission.maxQueueDelaySec = 0.05;
    FleetSimulator fleet(catalog, onePortPackage(false), options);
    return fleet.run(trace);
}

bool
writeText(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
main()
{
    const int kScenarios =
        scar::bench::envInt("SCAR_BENCH_COMM_SCENARIOS", 2);
    const int kRequests =
        scar::bench::envInt("SCAR_BENCH_COMM_REQUESTS", 240);

    // ---- Part 1: fidelity x topology schedule sweep ----------------
    struct SweepCase
    {
        std::string label;
        Scenario scenario;
        int pes;
    };
    std::vector<SweepCase> cases;
    cases.push_back({"Sc4", suite::datacenterScenario(4),
                     templates::kDatacenterPes});
    if (kScenarios > 1)
        cases.push_back(
            {"Sc7", suite::arvrScenario(7), templates::kArvrPes});

    TextTable table({"Scenario", "Topology", "Fidelity", "Lat (ms)",
                     "Energy (mJ)", "EDP", "Max qf", "Windows"});
    CsvWriter csv(scar::bench::csvPath("comm_fidelity"),
                  {"scenario", "topology", "fidelity", "latency_s",
                   "energy_j", "edp", "max_queue_factor", "windows"});

    bool exoticWins = false;
    for (const SweepCase& sweep : cases) {
        Metrics meshStatic;
        Metrics meshPhased;
        for (const TopoVariant& variant : variants(sweep.pes)) {
            for (const CommFidelity fidelity :
                 {CommFidelity::Static, CommFidelity::Phased}) {
                ScarOptions options;
                options.eval.fidelity = fidelity;
                Scar scar(sweep.scenario, variant.mcm, options);
                const ScheduleResult result = scar.run();
                const Metrics& m = result.metrics;
                const double qf = maxQueueFactor(result);

                table.addRow({sweep.label, variant.name,
                              fidelityName(fidelity),
                              TextTable::num(m.latencySec * 1e3, 3),
                              TextTable::num(m.energyJ * 1e3, 3),
                              TextTable::num(m.edp(), 9),
                              TextTable::num(qf, 3),
                              std::to_string(result.windows.size())});
                csv.addRow({sweep.label, variant.name,
                            fidelityName(fidelity),
                            TextTable::num(m.latencySec, 9),
                            TextTable::num(m.energyJ, 9),
                            TextTable::num(m.edp(), 12),
                            TextTable::num(qf, 6),
                            std::to_string(result.windows.size())});

                if (variant.name == "mesh") {
                    (fidelity == CommFidelity::Static ? meshStatic
                                                      : meshPhased) = m;
                } else if (variant.name == "torus" ||
                           variant.name == "broadcast") {
                    const Metrics& mesh =
                        fidelity == CommFidelity::Static ? meshStatic
                                                         : meshPhased;
                    exoticWins =
                        exoticWins || m.latencySec < mesh.latencySec ||
                        m.energyJ < mesh.energyJ ||
                        m.edp() < mesh.edp();
                }
            }
        }
    }

    std::cout << "Communication fidelity x interconnect sweep "
                 "(equal silicon: identical chiplets,\nPEs, and DRAM "
                 "ports; only the NoP differs)\n\n";
    std::cout << table.render();
    std::cout << "\nCSV: " << scar::bench::csvPath("comm_fidelity")
              << "\n";

    if (!exoticWins) {
        std::cerr << "GATE FAILED: neither torus nor broadcast beats "
                     "the mesh on any metric in any cell\n";
        return 1;
    }
    std::cout << "\nGate: torus/broadcast beats the mesh on >= 1 "
                 "metric at equal silicon — OK\n";

    // ---- Part 2: fidelity flips a BestFit routing decision ---------
    const auto catalog = fleetCatalog();
    const auto trace = poissonTrace(catalog, kRequests, /*seed=*/23);

    ThreadPool serialPool(1);
    ThreadPool widePool(8);
    const ServingReport staticRun =
        runFleet(catalog, trace, CommFidelity::Static, serialPool);
    const ServingReport phasedRun =
        runFleet(catalog, trace, CommFidelity::Phased, serialPool);

    TextTable fleetTable({"Fidelity", "Shard 0 (mesh)",
                          "Shard 1 (bcast)", "p99 (s)",
                          "SLO miss"});
    auto fleetRow = [&](const char* name, const ServingReport& r) {
        fleetTable.addRow(
            {name, std::to_string(r.shards[0].dispatches),
             std::to_string(r.shards[1].dispatches),
             TextTable::num(r.p99LatencySec, 4),
             TextTable::num(r.sloViolationRate, 4)});
    };
    fleetRow("static", staticRun);
    fleetRow("phased", phasedRun);
    std::cout << "\nBestFit routing on a {mesh, broadcast} fleet ("
              << kRequests << " requests):\n\n"
              << fleetTable.render();

    const bool flipped =
        staticRun.shards[0].dispatches !=
            phasedRun.shards[0].dispatches ||
        staticRun.shards[1].dispatches !=
            phasedRun.shards[1].dispatches;
    if (!flipped) {
        std::cerr << "GATE FAILED: phased fidelity flipped no BestFit "
                     "routing decision (per-shard dispatches "
                     "identical)\n";
        return 1;
    }
    std::cout << "\nGate: phased fidelity flips >= 1 BestFit routing "
                 "decision — OK\n";

    // ---- Part 3: phased determinism across solver threads ----------
    const std::string serialReport = describeServingReport(phasedRun);
    const std::string parallelReport = describeServingReport(
        runFleet(catalog, trace, CommFidelity::Phased, widePool));

    const std::string serialPath =
        "bench_results/comm_fidelity_report_serial.txt";
    const std::string parallelPath =
        "bench_results/comm_fidelity_report_parallel.txt";
    if (!writeText(serialPath, serialReport) ||
        !writeText(parallelPath, parallelReport)) {
        std::cerr << "FAILED to write report dumps\n";
        return 1;
    }
    if (serialReport != parallelReport) {
        std::cerr << "DETERMINISM VIOLATION: 1- and 8-solver-thread "
                     "phased reports differ (see "
                  << serialPath << " vs " << parallelPath << ")\n";
        return 1;
    }
    std::cout << "\nDeterminism: 1- and 8-solver-thread phased "
                 "reports are byte-identical (" << serialPath << ")\n";
    return 0;
}
