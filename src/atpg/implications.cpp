#include "atpg/implications.h"

#include <algorithm>

#include "netlist/library.h"

namespace occ {
namespace {

V3 eval_one(const Netlist& comb, const std::vector<V3>& vals, GateId g) {
  const Gate& gate = comb.gate(g);
  V3 ins[8];
  std::vector<V3> big;
  const size_t n = gate.fanin.size();
  V3* iv = ins;
  if (n > 8) {
    big.resize(n);
    iv = big.data();
  }
  for (size_t i = 0; i < n; ++i) iv[i] = vals[gate.fanin[i]];
  return eval_gate(gate.type, {iv, n});
}

}  // namespace

ImplicationTable::ImplicationTable(const UnrolledModel& model) {
  const Netlist& comb = model.comb();
  const size_t n = comb.size();
  const auto& vars = model.var_gates();

  // Baseline closure with every variable X. Nets definite here are
  // definite under *any* assignment (monotonicity), so they can never
  // be row members -- a row records only literal-induced refinements.
  std::vector<V3> vals(n, V3::kX);
  for (GateId g : comb.topo_order()) {
    const Gate& gate = comb.gate(g);
    if (gate.type == GateType::kInput || gate.type == GateType::kXSource) {
      continue;
    }
    if (gate.type == GateType::kTie0) {
      vals[g] = V3::k0;
    } else if (gate.type == GateType::kTie1) {
      vals[g] = V3::k1;
    } else {
      vals[g] = eval_one(comb, vals, g);
    }
  }
  const std::vector<V3> baseline = vals;

  // Event-driven forward closure of one literal, level-bucketed like
  // the PODEM implication loop; touched nets are undone afterwards so
  // every literal starts from the same baseline.
  std::vector<std::vector<GateId>> buckets(
      static_cast<size_t>(comb.max_level()) + 2);
  std::vector<uint32_t> queued(n, 0);
  uint32_t epoch = 0;
  std::vector<GateId> touched;

  std::vector<std::vector<uint32_t>> rows(2 * vars.size());
  for (uint32_t vi = 0; vi < vars.size(); ++vi) {
    const GateId vg = vars[vi];
    for (int val = 0; val < 2; ++val) {
      auto& row = rows[2 * vi + val];
      ++epoch;
      touched.clear();
      vals[vg] = val ? V3::k1 : V3::k0;
      touched.push_back(vg);
      for (GateId o : comb.gate(vg).fanout) {
        if (queued[o] != epoch) {
          queued[o] = epoch;
          buckets[static_cast<size_t>(comb.gate(o).level)].push_back(o);
        }
      }
      for (auto& bucket : buckets) {
        for (size_t i = 0; i < bucket.size(); ++i) {
          const GateId g = bucket[i];
          const GateType t = comb.gate(g).type;
          if (t == GateType::kInput || is_source(t)) continue;
          const V3 nv = eval_one(comb, vals, g);
          if (nv == vals[g]) continue;
          vals[g] = nv;
          touched.push_back(g);
          if (nv != V3::kX) row.push_back(pack(g, nv == V3::k1));
          for (GateId o : comb.gate(g).fanout) {
            if (queued[o] != epoch) {
              queued[o] = epoch;
              buckets[static_cast<size_t>(comb.gate(o).level)].push_back(o);
            }
          }
        }
        bucket.clear();
      }
      for (GateId g : touched) vals[g] = baseline[g];
    }
  }

  begin_.assign(2 * vars.size() + 1, 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    auto& row = rows[r];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    begin_[r + 1] = begin_[r] + static_cast<uint32_t>(row.size());
  }
  data_.reserve(begin_.back());
  for (const auto& row : rows) {
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

}  // namespace occ
