#include "gen/circuits.h"

#include <string>
#include <vector>

#include "util/check.h"

namespace occ {
namespace gen {

Netlist make_c17() {
  Netlist nl("c17");
  const GateId g1 = nl.add_input("G1");
  const GateId g2 = nl.add_input("G2");
  const GateId g3 = nl.add_input("G3");
  const GateId g6 = nl.add_input("G6");
  const GateId g7 = nl.add_input("G7");
  const GateId g10 = nl.add_gate2(GateType::kNand, g1, g3, "G10");
  const GateId g11 = nl.add_gate2(GateType::kNand, g3, g6, "G11");
  const GateId g16 = nl.add_gate2(GateType::kNand, g2, g11, "G16");
  const GateId g19 = nl.add_gate2(GateType::kNand, g11, g7, "G19");
  const GateId g22 = nl.add_gate2(GateType::kNand, g10, g16, "G22");
  const GateId g23 = nl.add_gate2(GateType::kNand, g16, g19, "G23");
  nl.add_output(g22, "O22");
  nl.add_output(g23, "O23");
  nl.finalize();
  return nl;
}

Netlist make_adder(size_t bits) {
  OCC_CHECK(bits >= 1, "adder needs >= 1 bit");
  Netlist nl("adder" + std::to_string(bits));
  std::vector<GateId> a(bits), b(bits);
  for (size_t i = 0; i < bits; ++i) {
    a[i] = nl.add_input("a" + std::to_string(i));
  }
  for (size_t i = 0; i < bits; ++i) {
    b[i] = nl.add_input("b" + std::to_string(i));
  }
  GateId carry = nl.add_input("cin");
  for (size_t i = 0; i < bits; ++i) {
    const std::string s = std::to_string(i);
    const GateId axb = nl.add_gate2(GateType::kXor, a[i], b[i], "axb" + s);
    const GateId sum = nl.add_gate2(GateType::kXor, axb, carry, "sum" + s);
    const GateId c1 = nl.add_gate2(GateType::kAnd, a[i], b[i], "c1_" + s);
    const GateId c2 = nl.add_gate2(GateType::kAnd, axb, carry, "c2_" + s);
    carry = nl.add_gate2(GateType::kOr, c1, c2, "cout" + s);
    nl.add_output(sum, "s" + s);
  }
  nl.add_output(carry, "cout");
  nl.finalize();
  return nl;
}

Netlist make_counter(size_t bits, DomainId domain) {
  OCC_CHECK(bits >= 1, "counter needs >= 1 bit");
  Netlist nl("counter" + std::to_string(bits));
  const GateId en = nl.add_input("en");
  std::vector<GateId> q(bits);
  for (size_t i = 0; i < bits; ++i) {
    q[i] = nl.add_dff(kNoGate, domain, "q" + std::to_string(i));
  }
  GateId carry = en;
  for (size_t i = 0; i < bits; ++i) {
    const std::string s = std::to_string(i);
    const GateId nxt = nl.add_gate2(GateType::kXor, q[i], carry, "nx" + s);
    nl.connect_dff_d(q[i], nxt);
    carry = nl.add_gate2(GateType::kAnd, q[i], carry, "cy" + s);
    nl.add_output(q[i], "o" + s);
  }
  nl.finalize();
  return nl;
}

Netlist make_alu4() {
  Netlist nl("alu4");
  std::vector<GateId> a(4), b(4);
  for (size_t i = 0; i < 4; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  for (size_t i = 0; i < 4; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  const GateId op0 = nl.add_input("op0");
  const GateId op1 = nl.add_input("op1");

  GateId carry = nl.add_tie(false, "c0");
  for (size_t i = 0; i < 4; ++i) {
    const std::string s = std::to_string(i);
    const GateId f_and = nl.add_gate2(GateType::kAnd, a[i], b[i], "fa" + s);
    const GateId f_or = nl.add_gate2(GateType::kOr, a[i], b[i], "fo" + s);
    const GateId f_xor = nl.add_gate2(GateType::kXor, a[i], b[i], "fx" + s);
    const GateId f_sum =
        nl.add_gate2(GateType::kXor, f_xor, carry, "fs" + s);
    const GateId c1 = nl.add_gate2(GateType::kAnd, a[i], b[i], "ca" + s);
    const GateId c2 = nl.add_gate2(GateType::kAnd, f_xor, carry, "cb" + s);
    carry = nl.add_gate2(GateType::kOr, c1, c2, "cc" + s);
    const GateId m0 = nl.add_mux2(op0, f_and, f_or, "m0_" + s);
    const GateId m1 = nl.add_mux2(op0, f_xor, f_sum, "m1_" + s);
    const GateId out = nl.add_mux2(op1, m0, m1, "out" + s);
    nl.add_output(out, "y" + s);
  }
  nl.add_output(carry, "carry");
  nl.finalize();
  return nl;
}

Netlist make_parity(size_t n) {
  OCC_CHECK(n >= 2, "parity needs >= 2 inputs");
  Netlist nl("parity" + std::to_string(n));
  std::vector<GateId> layer(n);
  for (size_t i = 0; i < n; ++i) {
    layer[i] = nl.add_input("i" + std::to_string(i));
  }
  size_t tag = 0;
  while (layer.size() > 1) {
    std::vector<GateId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.add_gate2(GateType::kXor, layer[i], layer[i + 1],
                                  "x" + std::to_string(tag++)));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  nl.add_output(layer[0], "p");
  nl.finalize();
  return nl;
}

Netlist make_two_domain_link(size_t width) {
  OCC_CHECK(width >= 1, "link needs width >= 1");
  Netlist nl("xdlink" + std::to_string(width));
  const GateId din = nl.add_input("din");
  const GateId sel = nl.add_input("sel");
  std::vector<GateId> src(width), dst(width);
  GateId prev = din;
  for (size_t i = 0; i < width; ++i) {
    src[i] = nl.add_dff(prev, 0, "srcff" + std::to_string(i));
    prev = src[i];
  }
  // Combinational glue between the domains (the logic the paper says
  // "remains untested" without inter-domain procedures).
  for (size_t i = 0; i < width; ++i) {
    const std::string s = std::to_string(i);
    const GateId other = src[(i + 1) % width];
    const GateId glue =
        nl.add_gate2(GateType::kXor, src[i], other, "glue" + s);
    const GateId gated = nl.add_mux2(sel, glue, src[i], "gsel" + s);
    dst[i] = nl.add_dff(gated, 1, "dstff" + s);
    nl.add_output(dst[i], "dout" + s);
  }
  nl.finalize();
  return nl;
}

Netlist make_shadow_register(size_t width) {
  OCC_CHECK(width >= 1, "shadow register needs width >= 1");
  Netlist nl("shadow" + std::to_string(width));
  const GateId load_en = nl.add_input("load_en");
  std::vector<GateId> d(width);
  for (size_t i = 0; i < width; ++i) {
    d[i] = nl.add_input("d" + std::to_string(i));
  }
  for (size_t i = 0; i < width; ++i) {
    const std::string s = std::to_string(i);
    // Front register (scannable).
    const GateId front = nl.add_dff(d[i], 0, "front" + s);
    // Shadow register: non-scan, loads from front when load_en.
    const GateId shadow = nl.add_dff(kNoGate, 0, "shadow" + s,
                                     kFlagNoScan);
    const GateId hold = nl.add_mux2(load_en, shadow, front, "hold" + s);
    nl.connect_dff_d(shadow, hold);
    // Logic observable only through the shadow value.
    const GateId mix = nl.add_gate2(GateType::kXnor, shadow, front,
                                    "mix" + s);
    const GateId obs = nl.add_dff(mix, 0, "obs" + s);
    nl.add_output(obs, "q" + s);
  }
  nl.finalize();
  return nl;
}

Netlist make_xor_miter(size_t width, bool skewed) {
  Netlist nl("miter");
  std::vector<GateId> pis;
  for (size_t i = 0; i < width; ++i) {
    pis.push_back(nl.add_input("p" + std::to_string(i)));
  }
  size_t k = 0;
  auto tree = [&](const std::string& pfx) {
    std::vector<GateId> lvl = pis;
    while (lvl.size() > 1) {
      std::vector<GateId> nxt;
      for (size_t i = 0; i + 1 < lvl.size(); i += 2) {
        nxt.push_back(nl.add_gate2(GateType::kXor, lvl[i], lvl[i + 1],
                                   pfx + std::to_string(k++)));
      }
      if (lvl.size() % 2) nxt.push_back(lvl.back());
      lvl = std::move(nxt);
    }
    return lvl[0];
  };
  const GateId t1 = tree("t1_");
  GateId t2 = kNoGate;
  if (skewed) {
    t2 = pis.back();
    for (size_t i = pis.size() - 1; i-- > 0;) {
      t2 = nl.add_gate2(GateType::kXor, t2, pis[i], "c" + std::to_string(i));
    }
  } else {
    t2 = tree("t2_");
  }
  const GateId m = nl.add_gate2(GateType::kXor, t1, t2, "m");
  const GateId side = nl.add_input("side");
  const GateId o = nl.add_gate2(GateType::kOr, m, side, "o");
  nl.add_output(o, "po");
  const GateId ff = nl.add_dff(kNoGate, 0, "ff0", kFlagScan);
  nl.connect_dff_d(ff, o);
  nl.finalize();
  return nl;
}

}  // namespace gen
}  // namespace occ
