#include "atpg/scoap.h"

#include <algorithm>

#include "netlist/library.h"

namespace occ {
namespace {

constexpr uint32_t kInf = Scoap::kInf;

uint32_t add(uint32_t a, uint32_t b) {
  const uint64_t s = static_cast<uint64_t>(a) + b;
  return s > kInf ? kInf : static_cast<uint32_t>(s);
}

}  // namespace

Scoap compute_scoap(const Netlist& comb,
                    const std::vector<GateId>& observations) {
  const size_t n = comb.size();
  Scoap sc;
  sc.cc0.assign(n, kInf);
  sc.cc1.assign(n, kInf);
  sc.co.assign(n, kInf);
  auto& cc0 = sc.cc0;
  auto& cc1 = sc.cc1;

  // Forward pass: controllability. The recurrences (including the
  // coarse XOR/XNOR sum-of-easiest-sides) steer every PODEM backtrace,
  // so any change here moves the committed pattern counts.
  for (GateId g : comb.topo_order()) {
    const Gate& gate = comb.gate(g);
    if (gate.type == GateType::kInput) {
      cc0[g] = cc1[g] = 1;
      continue;
    }
    if (gate.type == GateType::kTie0) {
      cc0[g] = 0;
      continue;
    }
    if (gate.type == GateType::kTie1) {
      cc1[g] = 0;
      continue;
    }
    if (gate.type == GateType::kXSource) continue;  // uncontrollable
    const auto& fi = gate.fanin;
    uint32_t all0 = 1, all1 = 1, min0 = kInf, min1 = kInf, sum_min = 1;
    for (GateId f : fi) {
      all0 = add(all0, cc0[f]);
      all1 = add(all1, cc1[f]);
      min0 = std::min(min0, cc0[f]);
      min1 = std::min(min1, cc1[f]);
      sum_min = add(sum_min, std::min(cc0[f], cc1[f]));
    }
    switch (gate.type) {
      case GateType::kBuf:
      case GateType::kOutput:
        cc0[g] = add(cc0[fi[0]], 1);
        cc1[g] = add(cc1[fi[0]], 1);
        break;
      case GateType::kNot:
        cc0[g] = add(cc1[fi[0]], 1);
        cc1[g] = add(cc0[fi[0]], 1);
        break;
      case GateType::kAnd:
        cc1[g] = all1;
        cc0[g] = add(min0, 1);
        break;
      case GateType::kNand:
        cc0[g] = all1;
        cc1[g] = add(min0, 1);
        break;
      case GateType::kOr:
        cc0[g] = all0;
        cc1[g] = add(min1, 1);
        break;
      case GateType::kNor:
        cc1[g] = all0;
        cc0[g] = add(min1, 1);
        break;
      case GateType::kXor:
      case GateType::kXnor:
        // Coarse: either value costs roughly the sum of easiest sides.
        cc0[g] = sum_min;
        cc1[g] = sum_min;
        break;
      case GateType::kMux2:
        cc0[g] = add(std::min(add(cc0[fi[0]], cc0[fi[1]]),
                              add(cc1[fi[0]], cc0[fi[2]])), 1);
        cc1[g] = add(std::min(add(cc0[fi[0]], cc1[fi[1]]),
                              add(cc1[fi[0]], cc1[fi[2]])), 1);
        break;
      default:
        cc0[g] = cc1[g] = sum_min;
    }
  }

  // Reverse pass: observability. co[g] is final once every fanout has
  // been processed, which reverse topological order guarantees; each
  // gate then relaxes its fanins with the side-sensitization cost.
  auto& co = sc.co;
  for (GateId o : observations) co[o] = 0;
  const auto& topo = comb.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    if (co[g] >= kInf) continue;
    const Gate& gate = comb.gate(g);
    const auto& fi = gate.fanin;
    for (size_t p = 0; p < fi.size(); ++p) {
      uint32_t side = 0;
      switch (gate.type) {
        case GateType::kBuf:
        case GateType::kNot:
        case GateType::kOutput:
          break;
        case GateType::kAnd:
        case GateType::kNand:
          for (size_t q = 0; q < fi.size(); ++q) {
            if (q != p) side = add(side, cc1[fi[q]]);
          }
          break;
        case GateType::kOr:
        case GateType::kNor:
          for (size_t q = 0; q < fi.size(); ++q) {
            if (q != p) side = add(side, cc0[fi[q]]);
          }
          break;
        case GateType::kMux2:
          if (p == 1) {
            side = cc0[fi[0]];  // select must route this data input
          } else if (p == 2) {
            side = cc1[fi[0]];
          } else {
            // Select observability needs the data inputs to differ;
            // coarse: cheapest definite value on each.
            side = add(std::min(cc0[fi[1]], cc1[fi[1]]),
                       std::min(cc0[fi[2]], cc1[fi[2]]));
          }
          break;
        case GateType::kXor:
        case GateType::kXnor:
        default:
          for (size_t q = 0; q < fi.size(); ++q) {
            if (q != p) side = add(side, std::min(cc0[fi[q]], cc1[fi[q]]));
          }
          break;
      }
      const uint32_t cand = add(add(co[g], side), 1);
      co[fi[p]] = std::min(co[fi[p]], cand);
    }
  }
  return sc;
}

}  // namespace occ
