// Levelized cycle-based simulator, 64 patterns in parallel.
//
// Semantics: kDff flops hold packed state; eval() settles the
// combinational network for the current (inputs, state); capture(mask)
// clocks all flops whose domain is selected in `mask`, loading their D
// values simultaneously. This models one clock pulse applied to a set of
// domains -- the primitive from which shift cycles, launch pulses, and
// capture pulses are composed.
//
// The constructor lowers the netlist once into a flat levelized op list
// (12-byte records over one shared fanin array, grouped by gate type
// within each level) and per-flop D/domain tables, so eval() and
// capture() stream through dense arrays with predictable branches
// instead of chasing the per-gate Gate records (fanin/fanout vectors
// and names). The fault simulator runs one eval() per frame of every
// batch.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/value.h"

namespace occ {

class CycleSim {
 public:
  /// Requires a finalized netlist containing only kDff sequential cells
  /// (explicit-clock cells belong to the event simulator).
  explicit CycleSim(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// Sets a primary input (by gate id) for all 64 slots.
  void set_input(GateId pi, Val64 v);
  /// Sets every primary input to X.
  void set_inputs_x();

  /// Sets flop state directly (used for scan load).
  void set_state(GateId ff, Val64 v);
  /// Sets all flop state to X (power-on).
  void reset_x();

  /// Settles combinational logic; values readable afterwards.
  void eval();

  /// Captures D into state for flops whose domain is in `mask`.
  /// Requires a preceding eval(); leaves combinational values stale
  /// (call eval() again to settle the next frame).
  void capture(DomainMask mask);

  /// Convenience: eval() then capture(mask).
  void pulse(DomainMask mask) {
    eval();
    capture(mask);
  }

  /// Value of any gate's output net after the last eval().
  Val64 value(GateId g) const { return vals_[g]; }
  /// Current stored state of a flop.
  Val64 state(GateId ff) const;

  /// Direct access to the full value vector (benchmarks, fault sim).
  const std::vector<Val64>& values() const { return vals_; }

 private:
  // One evaluation step in topological order: gate `out` of type `type`
  // reading fanins_[fanin_begin, fanin_begin + nf). Primary inputs have
  // no op (set_input drives them).
  struct Op {
    GateId out;
    uint32_t fanin_begin;
    uint16_t nf;
    GateType type;
  };

  const Netlist* nl_;
  std::vector<Op> ops_;
  std::vector<GateId> fanins_;
  std::vector<GateId> dff_d_;          // per nl.dffs() position: D net
  std::vector<DomainMask> dff_clock_;  // per nl.dffs() position: domain bit
  std::vector<Val64> vals_;   // per gate: output net value
  std::vector<Val64> state_;  // per gate id (only flop slots used)
  std::vector<Val64> scratch_d_;
};

}  // namespace occ
