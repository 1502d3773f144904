/**
 * @file
 * MCM communication cost model (paper Section III-E, Lat_com):
 *
 *   same chiplet:  0
 *   same package:  Sz/BW_nop + n_hops * Lat_hop + delta
 *   off-chip:      Sz/BW_offchip + n_hops * Lat_hop + Lat_mem + delta
 *
 * Off-chip transfers route over the NoP between the chiplet and its
 * nearest memory-interface chiplet. This class prices individual
 * transfers without contention; the contention term delta needs
 * window-global knowledge and lives in the window evaluator, which
 * supports two fidelities (EvaluatorOptions::fidelity):
 *
 *  - CommFidelity::Static (default, the paper's model): delta
 *    inflates each NoP transfer by the maximum number of flows
 *    sharing any link of its route. The per-(src, dst) factor is
 *    memoized in a flat table over the dense link ids
 *    (arch/topology.h) so each query is O(route length) once and O(1)
 *    after.
 *  - CommFidelity::Phased: the window's transfers are split into
 *    phases (CommPhase: weight-load, activation-exchange, off-chip
 *    spill), per-phase per-link byte loads accumulate into a
 *    PhasedLinkTable, and each flow is inflated by an M/D/1-style
 *    queueing factor of the bottleneck link's utilization
 *    (queueingFactor()), queried in O(1) per (src, dst, phase).
 *
 * Topology awareness: on wired topologies (mesh, torus, express
 * links) every link runs at BW_nop and the formulas above apply
 * verbatim. When the topology carries a wireless broadcast plane
 * (Topology::broadcastMesh), plane links run at the shared-medium
 * bandwidth and energy, per-pair bottleneck tables are precomputed at
 * construction, and one-to-many flows whose source and destinations
 * are all plane members are priced in a single shared-medium slot
 * (broadcastLatencyCycles()).
 */

#ifndef SCAR_COST_COMM_MODEL_H
#define SCAR_COST_COMM_MODEL_H

#include <vector>

#include "arch/mcm.h"

namespace scar
{

/** Contention-model fidelity of the window evaluator. */
enum class CommFidelity
{
    /** Paper Section III-E: max-sharers flow count per route. */
    Static,
    /** Time-phased loads + M/D/1 utilization curve per link. */
    Phased,
};

/**
 * Traffic phase of a window transfer. MCM AI traffic is bursty and
 * phase-structured (Musavi et al.): weight streaming, activation
 * hand-off, and off-chip spills peak at different times, so the
 * phased contention model only charges flows against the loads of
 * their own phase.
 */
enum class CommPhase
{
    WeightLoad = 0, ///< DRAM -> chiplet weight streaming
    Activation = 1, ///< chiplet -> chiplet activation hand-off
    Spill = 2,      ///< DRAM input loads and result writebacks
};

/** Number of CommPhase values (table stride). */
constexpr int kNumCommPhases = 3;

/** Display name of a phase ("weight", "act", "spill"). */
const char* commPhaseName(CommPhase phase);

/**
 * Per-phase per-link byte loads over the dense link ids, accumulated
 * flow by flow in O(route length) and queried in O(1). Links tagged
 * with a shared medium (wireless plane links) aggregate: load() on
 * any plane link returns the whole medium's bytes for that phase,
 * because a shared medium serializes all its transmissions.
 *
 * Accumulation order is the flow order handed to addFlow — sums are
 * plain running additions, so a naive per-transfer reference that
 * walks flows in the same order reproduces every entry bit-for-bit
 * (the differential contract tested in tests/test_comm_model.cc).
 */
class PhasedLinkTable
{
  public:
    explicit PhasedLinkTable(const Topology& topo);

    /** Adds one flow's bytes to every link of its route, one phase. */
    void addFlow(CommPhase phase, const std::vector<int>& linkIds,
                 double bytes);

    /** Phase load of a link (medium-aggregated for plane links). */
    double load(CommPhase phase, int linkId) const;

    /** Resets all loads to zero. */
    void clear();

  private:
    const Topology* topo_;
    std::vector<double> linkLoads_;   ///< phase * numLinks + link
    std::vector<double> mediumLoads_; ///< phase * numMedia + medium
};

/** Prices individual data movements on a given MCM. */
class CommModel
{
  public:
    explicit CommModel(const Mcm& mcm);

    /** Latency (cycles) of a chiplet-to-chiplet NoP transfer. */
    double nopLatencyCycles(double bytes, int src, int dst) const;

    /** Energy (nJ) of a chiplet-to-chiplet NoP transfer. */
    double nopEnergyNj(double bytes, int src, int dst) const;

    /** Latency (cycles) of a DRAM read/write for the given chiplet. */
    double dramLatencyCycles(double bytes, int chiplet) const;

    /** Energy (nJ) of a DRAM read/write incl. NoP traversal. */
    double dramEnergyNj(double bytes, int chiplet) const;

    /**
     * Latency (cycles) of a one-to-many transfer. When the topology's
     * broadcast plane covers the source and every destination, the
     * whole fan-out costs a single shared-medium slot (one
     * transmission reaches all members); otherwise the destinations
     * are served as serialized unicasts, each priced once.
     */
    double broadcastLatencyCycles(double bytes, int src,
                                  const std::vector<int>& dsts) const;

    /** Energy (nJ) of a one-to-many transfer (see latency overload). */
    double broadcastEnergyNj(double bytes, int src,
                             const std::vector<int>& dsts) const;

    /**
     * M/D/1-style congestion factor (>= 1) for a link carrying
     * `loadBytes` of same-phase traffic within a window of
     * `windowCycles` contention-free cycles: utilization
     * rho = min(load / (link bandwidth * window), 0.95) and
     * factor = 1 + rho / (2 (1 - rho)). Monotone in loadBytes,
     * finite (<= 10.5), and exactly 1 for an unloaded link.
     */
    double queueingFactor(double loadBytes, double windowCycles,
                          int linkId) const;

    /** Bandwidth (bytes/cycle) of one dense link (plane-aware). */
    double linkBytesPerCycle(int linkId) const;

    /** Per-hop NoP latency in cycles. */
    double hopLatencyCycles() const { return hopCycles_; }

    /** NoP bandwidth in bytes per cycle (per wired link). */
    double nopBytesPerCycle() const { return nopBpc_; }

    /** Off-chip bandwidth in bytes per cycle (package total). */
    double offchipBytesPerCycle() const { return offchipBpc_; }

    /** The MCM this model prices. */
    const Mcm& mcm() const { return mcm_; }

  private:
    /** True when the plane covers src and every (non-src) dst. */
    bool planeCovers(int src, const std::vector<int>& dsts) const;

    const Mcm& mcm_;
    double hopCycles_;
    double dramCycles_;
    double nopBpc_;
    double offchipBpc_;
    double broadcastBpc_ = 0.0;

    // Plane-aware per-pair route tables, built only when the topology
    // has a broadcast plane (empty otherwise — wired topologies price
    // through the uniform-bandwidth formulas above, bit-identical to
    // the pre-plane code by construction).
    std::vector<double> pairBpc_;          ///< bottleneck bytes/cycle
    std::vector<double> pairEnergyPjPerBit_; ///< summed over route links
};

} // namespace scar

#endif // SCAR_COST_COMM_MODEL_H
