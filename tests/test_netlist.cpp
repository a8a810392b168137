// Unit tests: netlist graph, levelization, validation, bench I/O, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/circuits.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "netlist/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace occ {
namespace {

TEST(Netlist, BuildAndFinalize) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate2(GateType::kAnd, a, b, "g");
  const GateId o = nl.add_output(g, "o");
  nl.finalize();
  EXPECT_TRUE(nl.finalized());
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.gate(a).fanout.size(), 1u);
  EXPECT_EQ(nl.gate(g).fanout[0], o);
  EXPECT_EQ(nl.gate(a).level, 0);
  EXPECT_EQ(nl.gate(g).level, 1);
  EXPECT_EQ(nl.gate(o).level, 2);
  EXPECT_EQ(nl.max_level(), 2);
}

TEST(Netlist, TopoOrderRespectsLevels) {
  Netlist nl = gen::make_adder(8);
  int32_t prev = -1;
  for (GateId g : nl.topo_order()) {
    EXPECT_GE(nl.gate(g).level, prev);
    prev = nl.gate(g).level;
  }
}

TEST(Netlist, CombinationalLoopDetected) {
  Netlist nl("loop");
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate2(GateType::kAnd, a, a, "g1");
  const GateId g2 = nl.add_gate2(GateType::kOr, g1, a, "g2");
  nl.replace_fanin(g1, 1, g2);  // g1 <- g2 <- g1
  EXPECT_THROW(nl.finalize(), CheckError);
}

TEST(Netlist, FlopFeedbackIsLegal) {
  Netlist nl("fb");
  const GateId ff = nl.add_dff(kNoGate, 0, "ff");
  const GateId inv = nl.add_gate1(GateType::kNot, ff, "inv");
  nl.connect_dff_d(ff, inv);
  nl.add_output(ff, "o");
  nl.finalize();  // toggle flop: legal feedback through the flop
  EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Netlist, DanglingDffDRejected) {
  Netlist nl("dangling");
  nl.add_dff(kNoGate, 0, "ff");
  EXPECT_THROW(nl.finalize(), CheckError);
}

TEST(Netlist, PinCountValidation) {
  Netlist nl("pins");
  const GateId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::kAnd, std::vector<GateId>{a}, "bad"),
               CheckError);
  EXPECT_THROW(nl.add_gate(GateType::kNot, std::vector<GateId>{a, a}, "bad"),
               CheckError);
  const GateId m = nl.add_mux2(a, a, a, "m");
  EXPECT_EQ(nl.gate(m).fanin.size(), 3u);
}

TEST(Netlist, OutputCannotDriveLogic) {
  Netlist nl("po");
  const GateId a = nl.add_input("a");
  const GateId o = nl.add_output(a, "o");
  nl.add_gate2(GateType::kAnd, a, o, "bad");
  EXPECT_THROW(nl.finalize(), CheckError);
}

TEST(Netlist, FindAndAssignNames) {
  Netlist nl("names");
  const GateId a = nl.add_input("alpha");
  const GateId g = nl.add_gate1(GateType::kNot, a);
  EXPECT_EQ(nl.find("alpha"), a);
  EXPECT_EQ(nl.find("nope"), kNoGate);
  nl.assign_names();
  EXPECT_FALSE(nl.gate(g).name.empty());
  EXPECT_EQ(nl.find(nl.gate(g).name), g);
}

TEST(Netlist, NumDomains) {
  Netlist nl("dom");
  const GateId a = nl.add_input("a");
  nl.add_dff(a, 0, "f0");
  nl.add_dff(a, 2, "f2");
  EXPECT_EQ(nl.num_domains(), 3u);
}

TEST(BenchIo, RoundTripCombinational) {
  Netlist nl = gen::make_c17();
  std::ostringstream os;
  write_bench(nl, os);
  std::istringstream is(os.str());
  Netlist rt = read_bench(is, "c17rt");
  EXPECT_EQ(rt.size(), nl.size());
  EXPECT_EQ(rt.inputs().size(), nl.inputs().size());
  EXPECT_EQ(rt.outputs().size(), nl.outputs().size());
  EXPECT_EQ(rt.max_level(), nl.max_level());
}

TEST(BenchIo, RoundTripSequentialWithDomains) {
  Netlist nl = gen::make_two_domain_link(4);
  // Tag one flop noscan to test attribute round-trip.
  nl.mutable_gate(nl.dffs()[0]).flags |= kFlagNoScan;
  nl.finalize();
  std::ostringstream os;
  write_bench(nl, os);
  std::istringstream is(os.str());
  Netlist rt = read_bench(is, "rt");
  EXPECT_EQ(rt.dffs().size(), nl.dffs().size());
  EXPECT_EQ(rt.num_domains(), 2u);
  size_t noscan = 0;
  for (GateId ff : rt.dffs()) {
    if (rt.gate(ff).flags & kFlagNoScan) ++noscan;
  }
  EXPECT_EQ(noscan, 1u);
}

TEST(BenchIo, ForwardReferencesResolve) {
  const char* text = R"(
    INPUT(a)
    out = AND(later, a)
    later = NOT(a)
    OUTPUT(out)
  )";
  std::istringstream is(text);
  Netlist nl = read_bench(is, "fwd");
  EXPECT_NE(nl.find("later"), kNoGate);
  EXPECT_EQ(nl.gate(nl.find("out")).fanin[0], nl.find("later"));
}

TEST(BenchIo, UndefinedNetRejected) {
  std::istringstream is("INPUT(a)\nx = AND(a, ghost)\n");
  EXPECT_THROW(read_bench(is, "bad"), CheckError);
}

TEST(BenchIo, DuplicateNetRejected) {
  std::istringstream is("INPUT(a)\nx = NOT(a)\nx = BUF(a)\n");
  EXPECT_THROW(read_bench(is, "dup"), CheckError);
}

/// Parses `text` expecting failure; returns the CheckError message.
std::string parse_error(const std::string& text) {
  std::istringstream is(text);
  try {
    read_bench(is, "err");
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected CheckError for:\n" << text;
  return {};
}

TEST(BenchIoErrors, UnknownCellCarriesLineNumber) {
  const std::string msg = parse_error("INPUT(a)\n\nx = FROB(a)\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("FROB"), std::string::npos) << msg;
}

TEST(BenchIoErrors, UnknownDirectiveCarriesLineNumber) {
  const std::string msg = parse_error("INPUT(a)\nWIBBLE(a)\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(BenchIoErrors, DuplicateDefinitionCarriesLineNumber) {
  const std::string msg =
      parse_error("INPUT(a)\nx = NOT(a)\nx = BUF(a)\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
}

TEST(BenchIoErrors, DuplicateInputCarriesBothLineNumbers) {
  const std::string msg = parse_error("INPUT(a)\n\nINPUT(a)\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(BenchIoErrors, GateShadowingInputCarriesLineNumber) {
  const std::string msg = parse_error("INPUT(a)\na = NOT(a)\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(BenchIoErrors, UnresolvedFaninCarriesDefiningLine) {
  // The undefined reference is on line 4 (the gate that names it).
  const std::string msg =
      parse_error("INPUT(a)\n\n\nx = AND(a, ghost)\nOUTPUT(x)\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ghost"), std::string::npos) << msg;
}

TEST(BenchIoErrors, UnresolvedOutputCarriesLineNumber) {
  const std::string msg = parse_error("INPUT(a)\nx = NOT(a)\nOUTPUT(y)\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("y"), std::string::npos) << msg;
}

TEST(BenchIoErrors, BadDomainValueCarriesLineNumber) {
  for (const char* bad : {"domain=", "domain=x", "domain=2x", "domain=-1",
                          "domain=99"}) {
    SCOPED_TRACE(bad);
    const std::string msg = parse_error(
        std::string("INPUT(a)\nf = DFF(a, ") + bad + ")\nOUTPUT(f)\n");
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
}

TEST(BenchIoErrors, BadDffOptionCarriesLineNumber) {
  const std::string msg =
      parse_error("INPUT(a)\nf = DFF(a, wobbly)\nOUTPUT(f)\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wobbly"), std::string::npos) << msg;
}

TEST(BenchIoErrors, MissingParenthesesCarriesLineNumber) {
  const std::string msg = parse_error("INPUT(a)\nx = NOT a\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(BenchIoErrors, ArityErrorsCarryLineNumber) {
  EXPECT_NE(parse_error("INPUT(a)\nf = DFF()\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nf = DFFC(a)\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nl = DLATL(a)\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nm = MUX(a, a)\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nx = AND(a)\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nn = NOT(a, a)\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("INPUT(a)\nt = TIE0(a)\n").find("line 2"),
            std::string::npos);
}

TEST(BenchIoErrors, DomainRoundTripAtDialectBound) {
  // domain=31 is the highest the 32-bit DomainMask supports; it must
  // parse and round-trip, 32 must not.
  std::istringstream ok("INPUT(a)\nf = DFF(a, domain=31)\nOUTPUT(f)\n");
  const Netlist nl = read_bench(ok, "edge");
  EXPECT_EQ(nl.num_domains(), 32u);
  EXPECT_NE(
      parse_error("INPUT(a)\nf = DFF(a, domain=32)\nOUTPUT(f)\n")
          .find("line 2"),
      std::string::npos);
}

TEST(BenchIoErrors, EmptyGateNameCarriesLineNumber) {
  // A nameless gate would otherwise parse and be renamed on write.
  const std::string msg = parse_error("INPUT(a)\n = BUF(a)\nOUTPUT(a)\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(BenchIoErrors, CombinationalLoopCarriesLineNumber) {
  // b and c feed each other; the error names the line defining one of
  // them, not a gate id.
  const std::string msg = parse_error(
      "INPUT(a)\nb = AND(a, c)\nc = NOT(b)\nOUTPUT(c)\n");
  EXPECT_TRUE(msg.find("line 2") != std::string::npos ||
              msg.find("line 3") != std::string::npos)
      << msg;
  EXPECT_NE(msg.find("loop"), std::string::npos) << msg;
}

TEST(BenchIoFuzz, CorpusMutantsParseOrNameALine) {
  // Seeded mutations of every committed corpus file: truncations, bit
  // flips and token insertions. Each mutant must either parse or fail
  // with a CheckError naming a bench line; a crash, another exception
  // type or an error without a line fails the test.
  std::vector<std::string> corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(OCC_CIRCUITS_DIR)) {
    if (entry.path().extension() != ".bench") continue;
    std::ifstream is(entry.path());
    std::ostringstream text;
    text << is.rdbuf();
    corpus.push_back(text.str());
  }
  std::sort(corpus.begin(), corpus.end());  // directory order varies
  ASSERT_GE(corpus.size(), 5u);
  const std::vector<std::string> tokens = {
      "=",   "(",     ")",      ",",       "#",       "\n",
      " ",   "AND",   "DFF",    "INPUT(",  "OUTPUT(", "domain=",
      "noscan", "G1", "x = BUF(x)\n", "= NOT(", "DFFC(", "MUX("};
  Rng rng(20050307);
  size_t parsed = 0, rejected = 0;
  for (size_t i = 0; i < 3000; ++i) {
    std::string text = corpus[i % corpus.size()];
    switch (i % 3) {
      case 0:
        text.resize(rng.below(text.size() + 1));
        break;
      case 1:
        for (uint64_t k = 0, n = 1 + rng.below(4); k < n; ++k) {
          text[rng.below(text.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      default:
        text.insert(rng.below(text.size() + 1),
                    tokens[rng.below(tokens.size())]);
    }
    std::istringstream is(text);
    try {
      read_bench(is, "mutant");
      ++parsed;
    } catch (const CheckError& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("bench line "),
                std::string::npos)
          << "mutant " << i << ": " << e.what();
    }
  }
  // Both outcomes must occur, or the sweep exercises nothing.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Stats, CountsMatchHandBuiltCircuit) {
  Netlist nl = gen::make_counter(4);
  const NetlistStats s = NetlistStats::compute(nl);
  EXPECT_EQ(s.flops, 4u);
  EXPECT_EQ(s.inputs, 1u);
  EXPECT_EQ(s.outputs, 4u);
  EXPECT_EQ(s.logic_gates, 8u);  // 4 XOR + 4 AND
  EXPECT_EQ(s.flops_per_domain.size(), 1u);
  EXPECT_EQ(s.flops_per_domain[0], 4u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(GateTypeNames, AllNamed) {
  for (int t = 0; t <= static_cast<int>(GateType::kDlatH); ++t) {
    EXPECT_NE(gate_type_name(static_cast<GateType>(t)), "?");
  }
}

}  // namespace
}  // namespace occ
