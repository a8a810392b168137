// Tests: dual-rail CNF lowering of the unrolled model -- unit-propagation
// parity with direct 3-valued simulation across all five clocking
// schemes and the circuits/ corpus, stable (byte-identical) DIMACS
// numbering, validity of the SAT probe's test cubes (X bits left X)
// against the scalar reference simulator, and every probe verdict
// against an exhaustive enumeration of the model variables.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "atpg/parallel.h"
#include "atpg/unroll.h"
#include "core/clock_scheme.h"
#include "netlist/bench_io.h"
#include "sat/lower.h"
#include "sat/probe.h"
#include "sat/solver.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(OCC_CIRCUITS_DIR) + "/" + name;
}

void mark_all_scan(Netlist& nl) {
  for (GateId ff : nl.dffs()) {
    if (!(nl.gate(ff).flags & kFlagNoScan)) {
      nl.mutable_gate(ff).flags |= kFlagScan;
    }
  }
  nl.finalize();
}

/// Direct 3-valued evaluation of the comb model under a full assignment
/// of the model variables: the simulation side of the parity check.
/// With `uf`, the faulty machine of that instance: stem sites take the
/// forced value, branch sites read it on their faulted pin.
std::vector<V3> sim_comb(const UnrolledModel& um,
                         const std::vector<V3>& var_values,
                         const UnrolledFault* uf = nullptr) {
  const Netlist& nl = um.comb();
  std::vector<V3> vals(nl.size(), V3::kX);
  std::vector<int32_t> var_of(nl.size(), -1);
  for (size_t i = 0; i < um.var_gates().size(); ++i) {
    var_of[um.var_gates()[i]] = static_cast<int32_t>(i);
  }
  const V3 forced = uf != nullptr && uf->forced_value ? V3::k1 : V3::k0;
  std::vector<int> site_pin(nl.size(), -1);
  if (uf != nullptr) {
    for (const auto& [site, pin] : uf->sites) site_pin[site] = pin;
  }
  for (GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    if (site_pin[g] == kOutputPin) {
      vals[g] = forced;
      continue;
    }
    switch (gate.type) {
      case GateType::kInput:
        vals[g] = var_values[static_cast<size_t>(var_of[g])];
        break;
      case GateType::kTie0:
        vals[g] = V3::k0;
        break;
      case GateType::kTie1:
        vals[g] = V3::k1;
        break;
      case GateType::kXSource:
        vals[g] = V3::kX;
        break;
      default: {
        std::vector<V3> in;
        for (GateId f : gate.fanin) in.push_back(vals[f]);
        if (site_pin[g] >= 0) in[static_cast<size_t>(site_pin[g])] = forced;
        vals[g] = gate.type == GateType::kOutput ? in[0]
                                                 : eval_gate(gate.type, in);
        break;
      }
    }
  }
  return vals;
}

/// Asserts that unit propagation on the lowered CNF reproduces the
/// simulated value of every comb gate, for `rounds` random full input
/// assignments.
void check_parity(const UnrolledModel& um, Rng& rng, int rounds) {
  CnfLowering low;
  low.lower_good_machine(um);
  const Netlist& nl = um.comb();
  for (int round = 0; round < rounds; ++round) {
    std::vector<V3> var_values(um.var_gates().size());
    std::vector<Lit> assumptions;
    for (size_t i = 0; i < var_values.size(); ++i) {
      const bool one = rng.chance(0.5);
      var_values[i] = one ? V3::k1 : V3::k0;
      const RailPair r = low.good(um.var_gates()[i]);
      assumptions.push_back(one ? r.one : r.zero);
    }
    bool conflict = false;
    const std::vector<int8_t> val =
        unit_propagate(low.cnf(), assumptions, &conflict);
    ASSERT_FALSE(conflict) << "round " << round;
    const std::vector<V3> sim = sim_comb(um, var_values);
    for (GateId g = 0; g < nl.size(); ++g) {
      const int8_t v1 = val[lit_var(low.good(g).one)];
      const int8_t v0 = val[lit_var(low.good(g).zero)];
      // Propagation must fully decide both rails of every gate...
      ASSERT_GE(v1, 0) << "gate " << g << " round " << round;
      ASSERT_GE(v0, 0) << "gate " << g << " round " << round;
      // ...and agree with the simulation, X included.
      const V3 got = v1 ? V3::k1 : v0 ? V3::k0 : V3::kX;
      ASSERT_EQ(got, sim[g])
          << "gate " << g << " (" << nl.gate(g).name << ") round " << round;
    }
  }
}

TEST(SatLowering, ParityAcrossAllFiveSchemes) {
  Rng gen_rng(0x10c0ffee);
  const ClockingScheme schemes[] = {
      scheme_stuck_at_external(2), scheme_external_full(2, 3),
      scheme_cpf_basic(2), scheme_cpf_enhanced(2, 3),
      scheme_external_constrained(2, 3)};
  for (const ClockingScheme& s : schemes) {
    SCOPED_TRACE(s.name);
    Netlist nl = test::random_netlist(gen_rng);
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const UnrolledModel um(nl, s, nc, kNoGate);
      Rng rng(0xab5eed + nc);
      check_parity(um, rng, 4);
    }
  }
}

TEST(SatLowering, ParityOnCircuitsCorpus) {
  for (const char* name :
       {"s27.bench", "s27m.bench", "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    Netlist nl = read_bench_file(corpus_path(name));
    mark_all_scan(nl);
    const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const UnrolledModel um(nl, s, nc, kNoGate);
      Rng rng(0xc0de + nc);
      check_parity(um, rng, 2);
    }
  }
}

TEST(SatLowering, IdenticalFaultsLowerToByteIdenticalDimacs) {
  Rng gen_rng(0x5eed);
  Netlist nl = test::random_netlist(gen_rng);
  const ClockingScheme s = scheme_stuck_at_external(2);
  const UnrolledModel um(nl, s, 0, kNoGate);
  const FaultList fl = FaultList::build(nl, s.model);
  ASSERT_GT(fl.size(), 0u);

  // Two fresh lowerings, and one reused lowering that lowers another
  // instance in between: the formula must not depend on the history.
  auto dump = [&](CnfLowering& low, const UnrolledFault& uf) {
    std::string out;
    if (low.lower_fault(um, uf)) {  // false = no observation in the cone
      std::ostringstream os;
      low.cnf().write_dimacs(os);
      out = os.str();
    }
    return out;
  };

  CnfLowering reused;
  size_t checked = 0;
  for (size_t fi = 0; fi < fl.size() && checked < 10; ++fi) {
    const auto instances = um.translate(fl.fault(fi));
    if (instances.empty()) continue;
    CnfLowering fresh_a, fresh_b;
    const std::string a = dump(fresh_a, instances[0]);
    const std::string b = dump(fresh_b, instances[0]);
    const std::string b2 = dump(reused, instances[0]);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, b2);
    // Leave the reused lowering holding a different instance.
    const auto other = um.translate(fl.fault((fi + 1) % fl.size()));
    if (!other.empty()) dump(reused, other[0]);
    if (a.empty()) continue;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SatLowering, SatCubesDetectInScalarReference) {
  // Each cube is simulated as the probe returns it: variables outside
  // the instance's support stay X, nothing is filled.
  Rng gen_rng(0x7e57);
  const ClockingScheme schemes[] = {scheme_stuck_at_external(2),
                                    scheme_cpf_basic(2)};
  for (const ClockingScheme& s : schemes) {
    SCOPED_TRACE(s.name);
    Netlist nl = test::random_netlist(gen_rng);
    const FaultList fl = FaultList::build(nl, s.model);
    size_t sat_seen = 0;
    for (uint32_t nc = 0; nc < s.procedures.size() && sat_seen < 8; ++nc) {
      const UnrolledModel um(nl, s, nc, kNoGate);
      for (size_t fi = 0; fi < fl.size() && sat_seen < 8; fi += 7) {
        for (const UnrolledFault& uf : um.translate(fl.fault(fi))) {
          const ProbeResult r = probe(um, uf, 0);
          if (r.verdict != Verdict::kSat) continue;
          const TestPattern pat = cube_to_pattern(um, r.cube, nl, nc);
          EXPECT_TRUE(test::ref_detects(nl, s.procedures[nc],
                                        s.scan_en_frozen, kNoGate, pat,
                                        fl.fault(fi)))
              << "fault " << fi << " ncp " << nc;
          ++sat_seen;
          break;  // next fault; one detecting instance is enough
        }
      }
    }
    EXPECT_GT(sat_seen, 0u);
  }
}

/// Every 0/1 assignment of the model variables, good and faulty machine
/// simulated three-valued: does one meet the launch constraints and
/// give a definite difference at an observation? An oracle that shares
/// no code with the lowering or either search engine.
bool brute_force_detects(const UnrolledModel& um, const UnrolledFault& uf) {
  const size_t nv = um.var_gates().size();
  std::vector<V3> vars(nv);
  for (uint64_t a = 0; a < (uint64_t{1} << nv); ++a) {
    for (size_t i = 0; i < nv; ++i) vars[i] = (a >> i) & 1 ? V3::k1 : V3::k0;
    const std::vector<V3> good = sim_comb(um, vars);
    bool launched = true;
    for (const auto& [g, val] : uf.constraints) {
      launched = launched && good[g] == (val ? V3::k1 : V3::k0);
    }
    if (!launched) continue;
    const std::vector<V3> faulty = sim_comb(um, vars, &uf);
    for (GateId o : um.observations()) {
      if (good[o] != V3::kX && faulty[o] != V3::kX && good[o] != faulty[o]) {
        return true;
      }
    }
  }
  return false;
}

/// Checks the unlimited-budget verdict of every instance of every fault
/// under every procedure of `s` against brute_force_detects. Returns the
/// number of (SAT, UNSAT) verdicts checked.
std::pair<size_t, size_t> check_verdicts_by_enumeration(
    const Netlist& nl, const ClockingScheme& s) {
  size_t sat = 0, unsat = 0;
  const FaultList fl = FaultList::build(nl, s.model);
  for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
    const UnrolledModel um(nl, s, nc, kNoGate);
    EXPECT_LE(um.var_gates().size(), 12u) << "ncp " << nc;
    if (um.var_gates().size() > 12) continue;
    for (size_t fi = 0; fi < fl.size(); ++fi) {
      for (const UnrolledFault& uf : um.translate(fl.fault(fi))) {
        const bool found = test::sat_verdict(um, uf) ==
                           Verdict::kSat;
        EXPECT_EQ(found, brute_force_detects(um, uf))
            << "ncp " << nc << " fault " << fault_to_string(nl, fl.fault(fi))
            << " cycle " << uf.target_cycle;
        ++(found ? sat : unsat);
      }
    }
  }
  return {sat, unsat};
}

TEST(SatLowering, VerdictsMatchEnumerationOnEveryScheme) {
  Rng gen_rng(0xd0c4a1);
  for (int round = 0; round < 2; ++round) {
    const Netlist nl = test::random_netlist(
        gen_rng, test::RandomNetlistParams{
                     .pis = 2, .pos = 2, .flops = 3, .gates = 16, .domains = 2});
    for (const ClockingScheme& s :
         {scheme_stuck_at_external(2), scheme_external_full(2, 3),
          scheme_cpf_basic(2), scheme_cpf_enhanced(2, 3),
          scheme_external_constrained(2, 3)}) {
      SCOPED_TRACE(s.name + " round " + std::to_string(round));
      const auto [sat, unsat] = check_verdicts_by_enumeration(nl, s);
      // Both verdicts must occur, or the check proves nothing.
      EXPECT_GT(sat, 0u);
      EXPECT_GT(unsat, 0u);
    }
  }
}

TEST(SatLowering, VerdictsMatchEnumerationOnS27) {
  Netlist nl = read_bench_file(corpus_path("s27.bench"));
  mark_all_scan(nl);
  const size_t d = nl.num_domains();
  // Bursts of at most 2 (b) keep every procedure within 12 variables.
  size_t unsat_total = 0;
  for (const ClockingScheme& s :
       {scheme_stuck_at_external(d), scheme_external_full(d, 2),
        scheme_cpf_basic(d), scheme_cpf_enhanced(d, 3),
        scheme_external_constrained(d, 3)}) {
    SCOPED_TRACE(s.name);
    const auto [sat, unsat] = check_verdicts_by_enumeration(nl, s);
    EXPECT_GT(sat, 0u);
    unsat_total += unsat;
  }
  // s27 is fully testable under (a) and (b); the CPF procedures leave
  // redundant instances.
  EXPECT_GT(unsat_total, 0u);
}

}  // namespace
}  // namespace sat
}  // namespace occ
