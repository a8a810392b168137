#include "netlist/bench_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/check.h"

namespace occ {
namespace {

struct PendingGate {
  std::string name;
  std::string func;
  std::vector<std::string> args;
  int line = 0;
};

std::string trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// Strict `domain=<N>` value parser: digits only, bounded by the width of
// DomainMask (32 domains). std::stoi would accept trailing junk and throw
// std::invalid_argument (not CheckError, and without the line) on garbage.
DomainId parse_domain(const std::string& value, int lineno) {
  OCC_CHECK(!value.empty(), "bench line ", lineno,
            ": domain= needs a value");
  int v = 0;
  for (char c : value) {
    OCC_CHECK(std::isdigit(static_cast<unsigned char>(c)), "bench line ",
              lineno, ": bad domain= value '", value,
              "' (expected a decimal integer)");
    v = v * 10 + (c - '0');
    OCC_CHECK(v < 32, "bench line ", lineno, ": domain= value '", value,
              "' out of range (0..31)");
  }
  return static_cast<DomainId>(v);
}

/// A gate on a combinational loop of `nl` (fanins resolved, not yet
/// finalized), or kNoGate. Depth-first over fanin edges; sources and
/// sequential cells end combinational paths, and a fanin still open on
/// the current path closes a loop through it.
GateId gate_on_loop(const Netlist& nl) {
  enum : uint8_t { kNew, kOpen, kDone };
  std::vector<uint8_t> state(nl.size(), kNew);
  std::vector<std::pair<GateId, size_t>> path;  // gate, next fanin pin
  for (GateId root = 0; root < nl.size(); ++root) {
    if (state[root] != kNew) continue;
    state[root] = kOpen;
    path.push_back({root, 0});
    while (!path.empty()) {
      const auto [g, pin] = path.back();
      const Gate& gate = nl.gate(g);
      if (is_source(gate.type) || is_sequential(gate.type) ||
          pin == gate.fanin.size()) {
        state[g] = kDone;
        path.pop_back();
        continue;
      }
      ++path.back().second;
      const GateId f = gate.fanin[pin];
      if (state[f] == kOpen) return f;
      if (state[f] == kNew) {
        state[f] = kOpen;
        path.push_back({f, 0});
      }
    }
  }
  return kNoGate;
}

}  // namespace

void write_bench(const Netlist& nl, std::ostream& os) {
  Netlist copy_holder;  // only used if names missing
  const Netlist* n = &nl;
  // Writer requires names; make a named copy if needed.
  bool names_ok = true;
  for (GateId id = 0; id < nl.size() && names_ok; ++id) {
    if (nl.gate(id).name.empty() && nl.gate(id).type != GateType::kOutput) {
      names_ok = false;
    }
  }
  if (!names_ok) {
    copy_holder = nl;
    copy_holder.assign_names();
    n = &copy_holder;
  }

  os << "# occtest netlist: " << n->name() << "\n";
  auto net_name = [&](GateId id) -> const std::string& {
    return n->gate(id).name;
  };
  for (GateId id : n->inputs()) {
    os << "INPUT(" << net_name(id) << ")\n";
  }
  for (GateId id : n->outputs()) {
    os << "OUTPUT(" << net_name(n->gate(id).fanin[0]) << ")\n";
  }
  for (GateId id = 0; id < n->size(); ++id) {
    const Gate& g = n->gate(id);
    switch (g.type) {
      case GateType::kInput:
      case GateType::kOutput:
        break;
      case GateType::kTie0:
      case GateType::kTie1:
      case GateType::kXSource:
        os << g.name << " = "
           << (g.type == GateType::kTie0   ? "TIE0"
               : g.type == GateType::kTie1 ? "TIE1"
                                           : "XSRC")
           << "()\n";
        break;
      case GateType::kDff: {
        os << g.name << " = DFF(" << net_name(g.fanin[0]);
        if (g.domain != 0) os << ", domain=" << static_cast<int>(g.domain);
        if (g.flags & kFlagNoScan) os << ", noscan";
        os << ")\n";
        break;
      }
      default: {
        std::string_view fn = gate_type_name(g.type);
        os << g.name << " = " << fn << "(";
        for (size_t i = 0; i < g.fanin.size(); ++i) {
          if (i) os << ", ";
          os << net_name(g.fanin[i]);
        }
        os << ")\n";
      }
    }
  }
}

void write_bench_file(const Netlist& nl, const std::string& path) {
  std::ofstream os(path);
  OCC_CHECK(os.good(), "cannot open ", path, " for writing");
  write_bench(nl, os);
  OCC_CHECK(os.good(), "write failure on ", path);
}

Netlist read_bench(std::istream& is, std::string netlist_name) {
  Netlist nl(std::move(netlist_name));
  struct OutputRef {
    std::string net;
    int line;
  };
  std::vector<OutputRef> output_nets;
  std::vector<PendingGate> pending;
  std::map<std::string, int> input_lines;  // name -> defining line
  std::string line;
  int lineno = 0;

  while (std::getline(is, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::string s = trim(line);
    if (s.empty()) continue;

    const size_t eq = s.find('=');
    const size_t lp = s.find('(');
    const size_t rp = s.rfind(')');
    OCC_CHECK(lp != std::string::npos && rp != std::string::npos && lp < rp,
              "bench line ", lineno, ": expected parentheses: ", s);
    std::string inside = s.substr(lp + 1, rp - lp - 1);

    auto split_args = [&]() {
      std::vector<std::string> args;
      std::stringstream ss(inside);
      std::string a;
      while (std::getline(ss, a, ',')) {
        a = trim(a);
        if (!a.empty()) args.push_back(a);
      }
      return args;
    };

    if (eq == std::string::npos) {
      const std::string kw = trim(s.substr(0, lp));
      if (kw == "INPUT") {
        const std::string name = trim(inside);
        OCC_CHECK(!name.empty(), "bench line ", lineno,
                  ": INPUT needs a name");
        const auto [it, inserted] = input_lines.emplace(name, lineno);
        OCC_CHECK(inserted, "bench line ", lineno, ": duplicate INPUT ",
                  name, " (first defined at line ", it->second, ")");
        nl.add_input(name);
      } else if (kw == "OUTPUT") {
        const std::string net = trim(inside);
        OCC_CHECK(!net.empty(), "bench line ", lineno,
                  ": OUTPUT needs a net");
        output_nets.push_back({net, lineno});
      } else {
        OCC_CHECK(false, "bench line ", lineno, ": unknown directive ", kw);
      }
      continue;
    }
    PendingGate pg;
    pg.name = trim(s.substr(0, eq));
    OCC_CHECK(!pg.name.empty(), "bench line ", lineno,
              ": gate definition needs a name: ", s);
    pg.func = trim(s.substr(eq + 1, lp - eq - 1));
    pg.args = split_args();
    pg.line = lineno;
    pending.push_back(std::move(pg));
  }

  // Pass 1: create all named gates with unresolved fanins.
  std::map<std::string, GateId> net;
  for (GateId id : nl.inputs()) net[nl.gate(id).name] = id;

  struct Unresolved {
    GateId gate;
    std::vector<std::string> srcs;
    int line;
  };
  std::vector<Unresolved> fixups;

  for (const PendingGate& pg : pending) {
    OCC_CHECK(!net.count(pg.name), "bench line ", pg.line,
              ": duplicate net ", pg.name);
    GateType type;
    std::vector<std::string> srcs;
    DomainId domain = 0;
    uint16_t flags = 0;
    const std::string& f = pg.func;
    if (f == "DFF") {
      type = GateType::kDff;
      OCC_CHECK(!pg.args.empty(), "bench line ", pg.line, ": DFF needs D");
      srcs.push_back(pg.args[0]);
      for (size_t i = 1; i < pg.args.size(); ++i) {
        const std::string& a = pg.args[i];
        if (a.rfind("domain=", 0) == 0) {
          domain = parse_domain(a.substr(7), pg.line);
        } else if (a == "noscan") {
          flags |= kFlagNoScan;
        } else if (a == "scan") {
          flags |= kFlagScan;
        } else {
          OCC_CHECK(false, "bench line ", pg.line, ": bad DFF option ", a);
        }
      }
      const GateId id = nl.add_dff(kNoGate, domain, pg.name, flags);
      net[pg.name] = id;
      fixups.push_back({id, std::move(srcs), pg.line});
      continue;
    }
    if (f == "TIE0" || f == "TIE1") {
      OCC_CHECK(pg.args.empty(), "bench line ", pg.line, ": ", f,
                " takes no arguments");
      net[pg.name] = nl.add_tie(f == "TIE1", pg.name);
      continue;
    }
    if (f == "XSRC") {
      OCC_CHECK(pg.args.empty(), "bench line ", pg.line,
                ": XSRC takes no arguments");
      net[pg.name] = nl.add_x_source(pg.name);
      continue;
    }
    if (f == "AND") type = GateType::kAnd;
    else if (f == "NAND") type = GateType::kNand;
    else if (f == "OR") type = GateType::kOr;
    else if (f == "NOR") type = GateType::kNor;
    else if (f == "XOR") type = GateType::kXor;
    else if (f == "XNOR") type = GateType::kXnor;
    else if (f == "NOT") type = GateType::kNot;
    else if (f == "BUF") type = GateType::kBuf;
    else if (f == "MUX") type = GateType::kMux2;
    else if (f == "DFFC") type = GateType::kDffC;
    else if (f == "DLATL") type = GateType::kDlatL;
    else if (f == "DLATH") type = GateType::kDlatH;
    else OCC_CHECK(false, "bench line ", pg.line, ": unknown cell ", f);

    // Validate arity here so the error carries the line number
    // (Netlist::add_gate would reject the pin count without one).
    if (type != GateType::kDffC && type != GateType::kDlatL &&
        type != GateType::kDlatH) {
      const int want = expected_fanin(type);
      if (want >= 0) {
        OCC_CHECK(pg.args.size() == static_cast<size_t>(want),
                  "bench line ", pg.line, ": ", f, " expects ", want,
                  " fanin(s), got ", pg.args.size());
      } else {
        OCC_CHECK(pg.args.size() >= 2, "bench line ", pg.line, ": ", f,
                  " expects >= 2 fanins, got ", pg.args.size());
      }
    }

    // Create with placeholder fanins resolved in pass 2.  We cannot call
    // add_gate with dangling ids, so create via DFF-style deferred fixups:
    // temporarily point every pin at gate 0 (guaranteed to exist: at least
    // one input or tie appears before any gate in practice; otherwise make
    // a tie).
    if (nl.size() == 0) nl.add_tie(false, "__t0");
    std::vector<GateId> tmp(pg.args.size(), 0);
    GateId id;
    if (type == GateType::kDffC) {
      OCC_CHECK(pg.args.size() == 2 || pg.args.size() == 3, "bench line ",
                pg.line, ": DFFC arity");
      id = nl.add_dff_c(0, 0, pg.name,
                        pg.args.size() == 3 ? GateId{0} : kNoGate);
    } else if (type == GateType::kDlatL || type == GateType::kDlatH) {
      OCC_CHECK(pg.args.size() == 2, "bench line ", pg.line, ": DLAT arity");
      id = nl.add_latch(0, 0, type == GateType::kDlatH, pg.name);
    } else {
      id = nl.add_gate(type, tmp, pg.name);
    }
    net[pg.name] = id;
    fixups.push_back({id, pg.args, pg.line});
  }

  // Pass 2: resolve fanins.
  for (const Unresolved& u : fixups) {
    for (size_t pin = 0; pin < u.srcs.size(); ++pin) {
      auto it = net.find(u.srcs[pin]);
      OCC_CHECK(it != net.end(), "bench line ", u.line,
                ": undefined net ", u.srcs[pin]);
      nl.replace_fanin(u.gate, pin, it->second);
    }
  }
  for (const auto& [o, oline] : output_nets) {
    auto it = net.find(o);
    OCC_CHECK(it != net.end(), "bench line ", oline,
              ": OUTPUT references undefined net ", o);
    nl.add_output(it->second, "out_" + o);
  }
  // finalize() would report a loop by gate id; name its defining line.
  if (const GateId g = gate_on_loop(nl); g != kNoGate) {
    const auto u =
        std::find_if(fixups.begin(), fixups.end(),
                     [&](const Unresolved& f) { return f.gate == g; });
    OCC_CHECK(false, "bench line ", u->line,
              ": combinational loop through ", nl.gate(g).name);
  }
  nl.finalize();
  return nl;
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream is(path);
  OCC_CHECK(is.good(), "cannot open ", path);
  return read_bench(is, path);
}

}  // namespace occ
