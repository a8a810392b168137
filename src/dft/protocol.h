// ATE protocol execution: applies test patterns through the *real* scan
// machinery (shift cycles through scan muxes, capture pulses per the
// NCP), cycle-accurately on the cycle simulator.
//
// This is the ground truth the ATPG abstraction must match: ATPG/fsim
// treat scan cells as directly loadable/observable; ScanProtocol performs
// the actual shifting and verifies the equivalence. The tester-cycle
// cost model behind the paper's pattern-count discussion (vector memory
// on the ATE) needs only the chain lengths, so it is two free functions
// over ScanChains that build no simulator.
#pragma once

#include <vector>

#include "core/ncp.h"
#include "dft/scan.h"
#include "fsim/pattern.h"
#include "sim/cycle_sim.h"

namespace occ {

/// Result of applying one pattern over the real scan protocol.
struct ProtocolResult {
  /// Unloaded scan response, indexed like scan_cells(nl).
  std::vector<V3> unload;
  /// PO values at each strobed frame (frame index, PO values).
  std::vector<std::pair<size_t, std::vector<V3>>> strobes;
  size_t shift_cycles = 0;
  size_t capture_cycles = 0;
};

class ScanProtocol {
 public:
  ScanProtocol(const Netlist& nl, const ScanChains& chains);

  /// Full load -> capture -> unload of one pattern. `scan_en_frozen`
  /// mirrors the scheme constraint (scan_en forced 0 during capture).
  ProtocolResult apply(const TestPattern& p,
                       const NamedCaptureProcedure& ncp,
                       bool scan_en_frozen = true);

 private:
  const Netlist* nl_;
  const ScanChains* chains_;
  CycleSim sim_;
  std::vector<GateId> scan_order_;  // scan_cells(nl)
};

/// Tester cycles for one pattern: shift-in dominates (max chain
/// length), plus per-frame PI/strobe cycles, plus the on-chip-clocking
/// arming overhead. Shift-out overlaps the next shift-in, as usual.
size_t tester_cycles(const ScanChains& chains,
                     const NamedCaptureProcedure& ncp,
                     bool on_chip_clocking);

/// Total ATE vector-memory cost of a pattern set (tester cycles), plus
/// the final unload.
size_t total_tester_cycles(const ScanChains& chains, const PatternSet& ps,
                           const std::vector<NamedCaptureProcedure>& ncps,
                           bool on_chip_clocking);

}  // namespace occ
