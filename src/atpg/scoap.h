// SCOAP-style testability measures on a combinational (unrolled) model.
//
// CC0/CC1 estimate the effort of setting a net to 0/1 from the model
// variables; CO estimates the effort of propagating a value difference
// from a net to any of the given observation outputs. All three are the
// classic Goldstein dynamic programs with saturating arithmetic: one
// forward topological pass for controllability, one reverse pass for
// observability. PODEM's backtrace reads CC0/CC1, its objective
// selection CO.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace occ {

/// Per-gate testability costs of one combinational model.
struct Scoap {
  /// Saturation bound: "effectively uncontrollable / unobservable"
  /// (tie networks, X sources and everything only they drive).
  static constexpr uint32_t kInf = 1u << 28;

  std::vector<uint32_t> cc0;  ///< cost of justifying the net to 0
  std::vector<uint32_t> cc1;  ///< cost of justifying the net to 1
  std::vector<uint32_t> co;   ///< cost of observing the net
};

/// Computes CC0/CC1/CO for every gate of `comb`. `observations` are the
/// model's strobed outputs (observability 0); nets that reach none of
/// them keep `Scoap::kInf` observability.
Scoap compute_scoap(const Netlist& comb,
                    const std::vector<GateId>& observations);

}  // namespace occ
