// Static implication learning for PODEM (the SOCRATES idiom).
//
// For each model-variable literal (var = 0 / var = 1) the table stores
// every comb-model net that 3-valued forward propagation determines
// from that single literal on the otherwise-unassigned model. Because
// 3-valued simulation is monotone, a row is a set of *guaranteed
// consequences*: every completion of any partial assignment containing
// the literal simulates those nets to the recorded values.
//
// PODEM consults the rows at decision time (podem.cpp,
// literal_conflicts): a candidate literal whose row forces a pending
// launch constraint to the wrong value, or forces a controlling side
// value onto the dominator chain of every fault site, dooms the whole
// subtree -- the search flips the decision without paying the forward
// simulation that would discover the same conflict one implication
// later.
//
// Lifetime: one table per PODEM engine, built from its UnrolledModel --
// i.e. per (netlist, scheme, capture procedure) -- when the engine is
// constructed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/unroll.h"

namespace occ {

class ImplicationTable {
 public:
  /// Packed row literal: comb gate id in the high bits, value in bit 0.
  static constexpr uint32_t pack(GateId g, bool v) {
    return (g << 1) | static_cast<uint32_t>(v);
  }
  static constexpr GateId lit_gate(uint32_t lit) { return lit >> 1; }
  static constexpr bool lit_value(uint32_t lit) { return (lit & 1) != 0; }

  ImplicationTable() = default;

  /// Builds the direct-implication rows for every variable literal of
  /// `model`.
  explicit ImplicationTable(const UnrolledModel& model);

  /// Implications of (var = val), sorted by packed literal. Each gate
  /// appears at most once per row.
  std::span<const uint32_t> row(uint32_t var, bool val) const {
    const size_t r = 2 * var + (val ? 1 : 0);
    return {data_.data() + begin_[r], begin_[r + 1] - begin_[r]};
  }

  size_t num_vars() const { return begin_.empty() ? 0 : (begin_.size() - 1) / 2; }
  /// Total stored literals across all rows (table-size telemetry).
  size_t num_literals() const { return data_.size(); }

 private:
  std::vector<uint32_t> data_;
  std::vector<uint32_t> begin_;  // CSR offsets, 2 * num_vars + 1 entries
};

}  // namespace occ
