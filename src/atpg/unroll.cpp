#include "atpg/unroll.h"

#include <algorithm>

#include "fsim/pattern.h"
#include "util/check.h"

namespace occ {

UnrolledModel::UnrolledModel(const Netlist& nl, const ClockingScheme& scheme,
                             uint32_t ncp_index, GateId scan_en_pi)
    : orig_(&nl),
      scheme_(&scheme),
      ncp_(&scheme.procedures.at(ncp_index)),
      ncp_index_(ncp_index),
      frames_(scheme.procedures.at(ncp_index).cycles.size()),
      comb_("unrolled_" + ncp_->name),
      scan_en_pi_(scan_en_pi) {
  OCC_CHECK(nl.finalized(), "unroll requires finalized netlist");
  const bool freeze_se = scheme.scan_en_frozen && scan_en_pi != kNoGate;

  map_.assign(frames_ + 1, std::vector<GateId>(nl.size(), kNoGate));
  capture_bufs_.assign(frames_,
                       std::vector<GateId>(nl.dffs().size(), kNoGate));

  // Scan-cell positions.
  const std::vector<GateId> scells = scan_cells(nl);
  std::vector<int32_t> scan_pos(nl.size(), -1);
  for (size_t i = 0; i < scells.size(); ++i) {
    scan_pos[scells[i]] = static_cast<int32_t>(i);
  }
  dff_pos_.assign(nl.size(), -1);
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_pos_[nl.dffs()[i]] = static_cast<int32_t>(i);
  }

  // Shared gates across frames.
  const GateId tie0 = comb_.add_tie(false, "u_tie0");
  const GateId tie1 = comb_.add_tie(true, "u_tie1");

  // Frame-0 flop state: load variables / X sources. `state_nodes[i]`
  // tracks flop i's stored-state node as pulses advance.
  std::vector<GateId> state0(nl.dffs().size());
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    const GateId ff = nl.dffs()[i];
    if (scan_pos[ff] >= 0) {
      const GateId v = comb_.add_input("load_" + std::to_string(i));
      var_gates_.push_back(v);
      var_info_.push_back({VarInfo::kLoad, 0,
                           static_cast<uint32_t>(scan_pos[ff])});
      state0[i] = v;
    } else {
      state0[i] = comb_.add_x_source("xff_" + std::to_string(i));
    }
  }
  std::vector<GateId> state_nodes = state0;

  const auto& pis = nl.inputs();
  std::vector<GateId> cur_pi(pis.size(), kNoGate);

  for (size_t f = 0; f < frames_; ++f) {
    const std::string sfx = "_f" + std::to_string(f);
    // PI variables.
    if (f == 0 || ncp_->cycles[f].pi_change) {
      for (size_t i = 0; i < pis.size(); ++i) {
        if (freeze_se && pis[i] == scan_en_pi_) {
          cur_pi[i] = tie0;
          continue;
        }
        const GateId v =
            comb_.add_input("pi" + std::to_string(i) + sfx);
        var_gates_.push_back(v);
        var_info_.push_back({VarInfo::kPi, static_cast<uint32_t>(f),
                             static_cast<uint32_t>(i)});
        cur_pi[i] = v;
      }
    }
    // Map sources and flop outputs for this frame. Each flop gets a
    // dedicated per-frame Q-net buffer distinct from its stored-state
    // node: output-stem faults corrupt the Q net seen by frame logic,
    // but NOT the state read out through the (slow) scan unload.
    for (size_t i = 0; i < pis.size(); ++i) map_[f][pis[i]] = cur_pi[i];
    for (size_t i = 0; i < nl.dffs().size(); ++i) {
      const GateId ff = nl.dffs()[i];
      map_[f][ff] = comb_.add_gate1(
          GateType::kBuf, state_nodes[i],
          "q_" + std::to_string(i) + "_f" + std::to_string(f));
    }
    // Clone combinational gates in topo order.
    for (GateId id : nl.topo_order()) {
      const Gate& g = nl.gate(id);
      switch (g.type) {
        case GateType::kInput:
        case GateType::kDff:
          break;  // already mapped
        case GateType::kTie0:
          map_[f][id] = tie0;
          break;
        case GateType::kTie1:
          map_[f][id] = tie1;
          break;
        case GateType::kXSource:
          if (f == 0) {
            map_[0][id] = comb_.add_x_source(g.name + sfx);
          } else {
            map_[f][id] = map_[0][id];
          }
          break;
        case GateType::kOutput: {
          // PO replica as a buffer; observers attached separately.
          map_[f][id] = comb_.add_gate1(GateType::kBuf,
                                        map_[f][g.fanin[0]],
                                        g.name + sfx);
          break;
        }
        case GateType::kDffC:
        case GateType::kDlatL:
        case GateType::kDlatH:
          OCC_CHECK(false, "timed cells cannot be unrolled (gate '",
                    g.name, "')");
          break;
        default: {
          std::vector<GateId> fin(g.fanin.size());
          for (size_t p = 0; p < g.fanin.size(); ++p) {
            fin[p] = map_[f][g.fanin[p]];
            OCC_CHECK(fin[p] != kNoGate, "unmapped fanin during unroll");
          }
          map_[f][id] = comb_.add_gate(g.type, fin, g.name + sfx);
        }
      }
    }
    // PO strobes of this frame.
    if (ncp_->cycles[f].po_strobe) {
      for (GateId po : nl.outputs()) {
        obs_.push_back(comb_.add_output(map_[f][po],
                                        "obs_po" + std::to_string(po) + sfx));
      }
    }
    // Pulse f: compute next-frame flop state.
    const DomainMask pulses = ncp_->cycles[f].pulses;
    for (size_t i = 0; i < nl.dffs().size(); ++i) {
      const GateId ff = nl.dffs()[i];
      const Gate& fg = nl.gate(ff);
      if (pulses & (DomainMask{1} << fg.domain)) {
        const GateId d = map_[f][fg.fanin[0]];
        const GateId buf = comb_.add_gate1(
            GateType::kBuf, d,
            "cap_" + std::to_string(i) + "_p" + std::to_string(f));
        capture_bufs_[f][i] = buf;
        state_nodes[i] = buf;
      }
      map_[f + 1][ff] = state_nodes[i];
    }
  }

  // Final scan state observation: every scan flop's state after the last
  // pulse, unless it never captured (load value: carries no response).
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    const GateId ff = nl.dffs()[i];
    if (scan_pos[ff] < 0) continue;
    const GateId fin = map_[frames_][ff];
    if (fin == state0[i]) continue;
    obs_.push_back(
        comb_.add_output(fin, "obs_scan" + std::to_string(i)));
  }

  comb_.finalize();
}

std::vector<UnrolledFault> UnrolledModel::translate(const Fault& f) const {
  const Netlist& nl = *orig_;
  const Gate& g = nl.gate(f.gate);
  std::vector<UnrolledFault> out;

  // Collect the replica sites of the faulted net/pin per frame.
  auto site_in_frame = [&](size_t fr) -> std::pair<GateId, uint8_t> {
    if (g.type == GateType::kDff) {
      if (f.pin == kOutputPin) {
        return {map_[fr][f.gate], kOutputPin};
      }
      // D-branch: the capture buffer of pulse fr (if this flop pulses).
      const int32_t dp = dff_pos_[f.gate];
      const GateId buf = capture_bufs_[fr][static_cast<size_t>(dp)];
      return {buf, 0};
    }
    if (f.pin == kOutputPin) return {map_[fr][f.gate], kOutputPin};
    return {map_[fr][f.gate], f.pin};
  };

  if (!is_transition(f.type)) {
    UnrolledFault uf;
    uf.forced_value = fault_value(f.type);
    for (size_t fr = 0; fr < frames_; ++fr) {
      auto [site, pin] = site_in_frame(fr);
      if (site == kNoGate) continue;
      // Deduplicate aliased replicas (frozen PIs, unpulsed flop state).
      const auto entry = std::make_pair(site, pin);
      if (std::find(uf.sites.begin(), uf.sites.end(), entry) ==
          uf.sites.end()) {
        uf.sites.push_back(entry);
      }
    }
    if (!uf.sites.empty()) out.push_back(std::move(uf));
    return out;
  }

  // Transition fault: one instance per eligible at-speed launch cycle.
  const GateId net = fault_net(nl, f);
  const bool init_val = fault_value(f.type);  // STR forces 0 (its init)
  for (size_t k = 1; k < frames_; ++k) {
    if (!ncp_->cycles[k].at_speed) continue;
    auto [site, pin] = site_in_frame(k);
    if (site == kNoGate) continue;
    // The transition must be capturable: for a D-branch fault the flop
    // itself must pulse at k (site already ensures that); for others the
    // effect must still reach an observation -- PODEM decides that.
    UnrolledFault uf;
    uf.forced_value = init_val;
    uf.sites.push_back({site, pin});
    uf.constraints.push_back({map_[k - 1][net], init_val});
    uf.target_cycle = static_cast<uint32_t>(k);
    out.push_back(std::move(uf));
  }
  return out;
}

GateId UnrolledModel::capture_buf(size_t pulse, size_t dff_pos) const {
  return capture_bufs_[pulse][dff_pos];
}

}  // namespace occ
