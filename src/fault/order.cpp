#include "fault/order.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace occ {

std::vector<uint32_t> cone_sink_groups(const Netlist& nl) {
  constexpr uint32_t kNoSink = std::numeric_limits<uint32_t>::max();
  const auto& dffs = nl.dffs();

  // Sink keys: flop D pins first (dff position), then POs.
  std::vector<uint32_t> dff_pos(nl.size(), kNoSink);
  for (size_t i = 0; i < dffs.size(); ++i) {
    dff_pos[dffs[i]] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> po_key(nl.size(), kNoSink);
  for (size_t i = 0; i < nl.outputs().size(); ++i) {
    po_key[nl.outputs()[i]] = static_cast<uint32_t>(dffs.size() + i);
  }

  // Reverse-topological sweep: a gate inherits the smallest sink key of
  // its fanouts; flop and PO fanouts are sinks themselves.
  std::vector<uint32_t> group(nl.size(), kNoSink);
  const auto& topo = nl.topo_order();
  for (size_t t = topo.size(); t-- > 0;) {
    const GateId g = topo[t];
    uint32_t best = kNoSink;
    for (GateId o : nl.gate(g).fanout) {
      const Gate& og = nl.gate(o);
      uint32_t k;
      if (is_sequential(og.type)) {
        k = dff_pos[o];
      } else if (og.type == GateType::kOutput) {
        k = po_key[o];
      } else {
        k = group[o];
      }
      best = std::min(best, k);
    }
    group[g] = best;
  }
  return group;
}

std::vector<uint32_t> cone_sim_order(const Netlist& nl,
                                     const FaultList& fl) {
  const std::vector<uint32_t> group = cone_sink_groups(nl);
  std::vector<uint32_t> order(fl.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     const GateId sa = fault_net(nl, fl.fault(a));
                     const GateId sb = fault_net(nl, fl.fault(b));
                     if (group[sa] != group[sb]) return group[sa] < group[sb];
                     const int32_t la = nl.gate(sa).level;
                     const int32_t lb = nl.gate(sb).level;
                     if (la != lb) return la < lb;
                     return sa < sb;
                   });
  return order;
}

std::vector<uint32_t> str_stf_partners(const FaultList& fl) {
  std::vector<uint32_t> partner(fl.size(), kNoPartner);
  // site key -> index of the first transition fault seen there.
  std::unordered_map<uint64_t, uint32_t> first;
  first.reserve(fl.size());
  for (uint32_t i = 0; i < fl.size(); ++i) {
    const Fault& f = fl.fault(i);
    if (!is_transition(f.type)) continue;
    const uint64_t key = (uint64_t{f.gate} << 8) | f.pin;
    auto [it, inserted] = first.try_emplace(key, i);
    if (inserted) continue;
    const Fault& other = fl.fault(it->second);
    if (other.type != f.type) {
      partner[i] = it->second;
      partner[it->second] = i;
    }
  }
  return partner;
}

}  // namespace occ
