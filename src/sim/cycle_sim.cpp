#include "sim/cycle_sim.h"

#include <array>

#include "util/check.h"

namespace occ {

CycleSim::CycleSim(const Netlist& nl) : nl_(&nl) {
  OCC_CHECK(nl.finalized(), "CycleSim requires a finalized netlist");
  for (GateId s : nl.seqs()) {
    OCC_CHECK(nl.gate(s).type == GateType::kDff,
              "CycleSim supports kDff only; gate '", nl.gate(s).name,
              "' is ", gate_type_name(nl.gate(s).type));
  }
  vals_.assign(nl.size(), Val64::allx());
  state_.assign(nl.size(), Val64::allx());
  scratch_d_.resize(nl.dffs().size());
  // Netlist::topo_order() lists the gates level by level, and any order
  // that is non-decreasing in level is topological (a gate's fanins sit
  // on lower levels). Within each level a stable counting sort groups
  // the ops by type, so consecutive ops take the same evaluation branch.
  const std::vector<GateId>& topo = nl.topo_order();
  std::vector<GateId> order(topo.size());
  constexpr size_t kTypes = size_t{1} << (8 * sizeof(GateType));
  for (size_t b = 0, e = 0; b < topo.size(); b = e) {
    std::array<size_t, kTypes + 1> next{};
    const int32_t level = nl.gate(topo[b]).level;
    for (e = b; e < topo.size() && nl.gate(topo[e]).level == level; ++e) {
      ++next[static_cast<size_t>(nl.gate(topo[e]).type) + 1];
    }
    next[0] = b;
    for (size_t t = 0; t < kTypes; ++t) next[t + 1] += next[t];
    for (size_t k = b; k < e; ++k) {
      order[next[static_cast<size_t>(nl.gate(topo[k]).type)]++] = topo[k];
    }
  }
  ops_.reserve(order.size());
  for (GateId id : order) {
    const Gate& g = nl.gate(id);
    if (g.type == GateType::kInput) continue;  // externally driven
    OCC_CHECK(g.fanin.size() <= UINT16_MAX, "gate '", g.name,
              "' has too many fanins");
    ops_.push_back({id, static_cast<uint32_t>(fanins_.size()),
                    static_cast<uint16_t>(g.fanin.size()), g.type});
    fanins_.insert(fanins_.end(), g.fanin.begin(), g.fanin.end());
  }
  for (GateId ff : nl.dffs()) {
    dff_d_.push_back(nl.gate(ff).fanin[0]);
    dff_clock_.push_back(DomainMask{1} << nl.gate(ff).domain);
  }
}

void CycleSim::set_input(GateId pi, Val64 v) {
  OCC_DCHECK(nl_->gate(pi).type == GateType::kInput);
  vals_[pi] = v;
}

void CycleSim::set_inputs_x() {
  for (GateId pi : nl_->inputs()) vals_[pi] = Val64::allx();
}

void CycleSim::set_state(GateId ff, Val64 v) {
  OCC_DCHECK(nl_->gate(ff).type == GateType::kDff);
  state_[ff] = v;
}

void CycleSim::reset_x() {
  for (GateId ff : nl_->dffs()) state_[ff] = Val64::allx();
}

void CycleSim::eval() {
  // Levelized order guarantees fanins are final before each op. The
  // multi-input families fold from their first operand, which equals
  // eval_gate_packed's fold from the identity word.
  Val64* vals = vals_.data();
  const GateId* fanins = fanins_.data();
  for (const Op& op : ops_) {
    const GateId* in = fanins + op.fanin_begin;
    Val64 r;
    switch (op.type) {
      case GateType::kDff:
        r = state_[op.out];
        break;
      case GateType::kTie0:
        r = Val64::all0();
        break;
      case GateType::kTie1:
        r = Val64::all1();
        break;
      case GateType::kXSource:
        r = Val64::allx();
        break;
      case GateType::kBuf:
      case GateType::kOutput:
        r = vals[in[0]];
        break;
      case GateType::kNot:
        r = v_not(vals[in[0]]);
        break;
      case GateType::kAnd:
      case GateType::kNand:
        r = vals[in[0]];
        for (uint32_t i = 1; i < op.nf; ++i) r = v_and(r, vals[in[i]]);
        if (op.type == GateType::kNand) r = v_not(r);
        break;
      case GateType::kOr:
      case GateType::kNor:
        r = vals[in[0]];
        for (uint32_t i = 1; i < op.nf; ++i) r = v_or(r, vals[in[i]]);
        if (op.type == GateType::kNor) r = v_not(r);
        break;
      case GateType::kXor:
      case GateType::kXnor:
        r = vals[in[0]];
        for (uint32_t i = 1; i < op.nf; ++i) r = v_xor(r, vals[in[i]]);
        if (op.type == GateType::kXnor) r = v_not(r);
        break;
      case GateType::kMux2:
        r = v_mux(vals[in[0]], vals[in[1]], vals[in[2]]);
        break;
      default:
        OCC_CHECK(false, "CycleSim: cannot evaluate ",
                  gate_type_name(op.type));
    }
    vals[op.out] = r;
  }
}

void CycleSim::capture(DomainMask mask) {
  const auto& dffs = nl_->dffs();
  // Two-phase: read all D pins, then update, so flop-to-flop paths see the
  // pre-edge values (proper edge-triggered semantics).
  for (size_t i = 0; i < dffs.size(); ++i) scratch_d_[i] = vals_[dff_d_[i]];
  for (size_t i = 0; i < dffs.size(); ++i) {
    if (mask & dff_clock_[i]) state_[dffs[i]] = scratch_d_[i];
  }
}

Val64 CycleSim::state(GateId ff) const {
  OCC_DCHECK(nl_->gate(ff).type == GateType::kDff);
  return state_[ff];
}

}  // namespace occ
