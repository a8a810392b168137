// Static cone-locality ordering for fault simulation.
//
// Simulating a fault touches its fanout cone up to the observation
// points; faults whose cones share sinks touch overlapping gate sets.
// Walking the fault list in enumeration order interleaves unrelated
// cones and thrashes the per-gate scratch; grouping faults by the
// nearest observation sink of their site keeps consecutive faults inside
// warm regions. The order is a pure permutation: the engines still merge
// results in fault-index order, so statuses, detection (fault, slot)
// pairs and statistics are bit-identical to an unordered walk (faults
// are independent within a batch; dropping only acts between batches).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_list.h"
#include "netlist/netlist.h"

namespace occ {

/// Per-gate locality key: the smallest observation-sink index reachable
/// from the gate's output net (flop D pins rank before primary outputs;
/// gates reaching no sink sort last). Deterministic for a fixed netlist.
std::vector<uint32_t> cone_sink_groups(const Netlist& nl);

/// Permutation of [0, fl.size()) grouping faults by the sink group of
/// their site, then by site level and site id (stable for ties).
std::vector<uint32_t> cone_sim_order(const Netlist& nl, const FaultList& fl);

/// str_stf_partners() entry of a fault with no partner.
inline constexpr uint32_t kNoPartner = 0xFFFFFFFFu;

/// partner[i] = index of the complementary transition fault (STR<->STF)
/// at the same (gate, pin), or kNoPartner when none exists. Stuck-at
/// faults never pair (their injections overlap on every lane).
std::vector<uint32_t> str_stf_partners(const FaultList& fl);

}  // namespace occ
