// Time-frame unrolling: compiles (netlist, named capture procedure) into
// a pure combinational model for PODEM.
//
// Frame semantics follow core/ncp.h: frame f is the settled network
// before pulse f; pulse f captures D values of the pulsed domains. The
// unrolled model materializes:
//   * one replica of every combinational gate per frame;
//   * PI variables for frame 0 and for every frame allowing pi_change
//     (frozen frames alias the previous frame's variables);
//   * load variables for scan flops (frame-0 state);
//   * X sources for non-scan flops (power-up state unknown);
//   * a capture buffer per (pulsed flop, frame) modeling the D-pin branch
//     (so D-branch faults stay distinguishable from stem faults);
//   * observation outputs at strobed-PO replicas and at every scan flop's
//     final state.
// Fault translation maps an original fault to its replica sites plus,
// for transition faults, the launch-frame activation constraint.
#pragma once

#include <cstdint>
#include <vector>

#include "core/clock_scheme.h"
#include "fault/fault.h"
#include "netlist/netlist.h"

namespace occ {

/// A PODEM target compiled from one original fault.
struct UnrolledFault {
  /// Replica sites to force in the faulty machine: (comb gate, pin).
  std::vector<std::pair<GateId, uint8_t>> sites;
  /// The forced (stuck) value.
  bool forced_value = false;
  /// Good-machine justification requirements (transition launch
  /// condition: site at frame k-1 must carry the initial value).
  std::vector<std::pair<GateId, bool>> constraints;
  /// Which at-speed cycle this instance targets (transition only).
  uint32_t target_cycle = 0;
};

class UnrolledModel {
 public:
  /// Builds the model. `scan_en_pi`: the scan-enable input of `nl`
  /// (kNoGate if none); when the scheme freezes scan_en it becomes Tie0.
  UnrolledModel(const Netlist& nl, const ClockingScheme& scheme,
                uint32_t ncp_index, GateId scan_en_pi);

  const Netlist& comb() const { return comb_; }
  const Netlist& original() const { return *orig_; }
  const NamedCaptureProcedure& ncp() const { return *ncp_; }
  uint32_t ncp_index() const { return ncp_index_; }
  size_t num_frames() const { return frames_; }

  /// Replica of original gate `g` in frame `f` (f in [0, frames];
  /// row `frames` holds flop state after the last pulse).
  GateId replica(size_t f, GateId g) const { return map_[f][g]; }

  /// PODEM-assignable inputs of the comb model.
  struct VarInfo {
    enum Kind : uint8_t { kPi, kLoad } kind;
    uint32_t frame;  // for kPi: first frame using this variable
    uint32_t pos;    // PI position or scan-cell position
  };
  const std::vector<GateId>& var_gates() const { return var_gates_; }
  const std::vector<VarInfo>& var_info() const { return var_info_; }

  /// Observation outputs (kOutput gates of the comb model).
  const std::vector<GateId>& observations() const { return obs_; }

  /// Compiles an original-netlist fault into PODEM targets: one instance
  /// for stuck-at; one per eligible at-speed launch cycle for transition
  /// faults. Empty result means the fault cannot be excited/captured
  /// under this NCP at all (e.g. no at-speed pair pulses its domain).
  std::vector<UnrolledFault> translate(const Fault& f) const;

 private:
  GateId capture_buf(size_t pulse, size_t dff_pos) const;

  const Netlist* orig_;
  const ClockingScheme* scheme_;
  const NamedCaptureProcedure* ncp_;
  uint32_t ncp_index_;
  size_t frames_;
  Netlist comb_;
  std::vector<std::vector<GateId>> map_;  // [frame][orig gate]
  std::vector<GateId> var_gates_;
  std::vector<VarInfo> var_info_;
  std::vector<GateId> obs_;
  // capture_bufs_[pulse][dff position] = buf gate or kNoGate.
  std::vector<std::vector<GateId>> capture_bufs_;
  std::vector<int32_t> dff_pos_;  // orig gate id -> dffs() index or -1
  GateId scan_en_pi_;
};

}  // namespace occ
