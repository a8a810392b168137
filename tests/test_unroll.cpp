// Tests: time-frame unrolling -- structure, variables, equivalence with
// the sequential good-machine simulation, fault translation.
#include <gtest/gtest.h>

#include "atpg/unroll.h"
#include "core/clock_scheme.h"
#include "fsim/fsim.h"
#include "gen/circuits.h"
#include "sim/cycle_sim.h"
#include "util/rng.h"

namespace occ {
namespace {

void mark_all_scan(Netlist& nl) {
  for (GateId ff : nl.dffs()) nl.mutable_gate(ff).flags |= kFlagScan;
  nl.finalize();
}

TEST(Unroll, VariableInventory) {
  Netlist nl = gen::make_counter(4);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_cpf_basic(1);
  UnrolledModel um(nl, s, 0, kNoGate);
  EXPECT_EQ(um.num_frames(), 2u);
  // Vars: 4 loads + 1 PI (frame 0 only; frame 1 frozen).
  EXPECT_EQ(um.var_gates().size(), 5u);
  size_t loads = 0, pis = 0;
  for (const auto& vi : um.var_info()) {
    if (vi.kind == UnrolledModel::VarInfo::kLoad) ++loads;
    else ++pis;
  }
  EXPECT_EQ(loads, 4u);
  EXPECT_EQ(pis, 1u);
  // Observations: 4 scan finals (counter has POs but none strobed).
  EXPECT_EQ(um.observations().size(), 4u);
}

TEST(Unroll, PiChangeFramesGetFreshVariables) {
  Netlist nl = gen::make_counter(4);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_external_full(1, 3);
  // procedures: burst2, burst3. burst3 has 3 frames, all pi_change.
  UnrolledModel um(nl, s, 1, kNoGate);
  EXPECT_EQ(um.num_frames(), 3u);
  EXPECT_EQ(um.var_gates().size(), 4u + 3u * 1u);
  // burst3 strobes POs each frame: 4 POs x 3 frames + scan finals 4.
  EXPECT_EQ(um.observations().size(), 12u + 4u);
}

TEST(Unroll, FrozenScanEnBecomesTie) {
  Netlist nl("se");
  const GateId d = nl.add_input("d");
  const GateId se = nl.add_input("scan_en");
  const GateId ff = nl.add_dff(kNoGate, 0, "ff", kFlagScan);
  const GateId mx = nl.add_mux2(se, d, ff, "mx");
  nl.connect_dff_d(ff, mx);
  nl.add_output(ff, "o");
  nl.finalize();

  ClockingScheme s = scheme_cpf_basic(1);
  ASSERT_TRUE(s.scan_en_frozen);
  UnrolledModel um(nl, s, 0, se);
  // Vars: load + PI d (1 frame of PI vars); scan_en must NOT be a var.
  for (const auto& vi : um.var_info()) {
    if (vi.kind == UnrolledModel::VarInfo::kPi) {
      EXPECT_NE(nl.inputs()[vi.pos], se);
    }
  }
  // The scan_en replica maps to the constant-0 gate in every frame.
  const GateId rep0 = um.replica(0, se);
  EXPECT_EQ(um.comb().gate(rep0).type, GateType::kTie0);
  EXPECT_EQ(um.replica(1, se), rep0);
}

TEST(Unroll, NonScanFlopsBecomeXSources) {
  Netlist nl = gen::make_shadow_register(2);
  mark_all_scan(nl);  // marks all, but NoScan flag excludes shadows
  for (GateId ff : nl.dffs()) {
    if (nl.gate(ff).flags & kFlagNoScan) {
      nl.mutable_gate(ff).flags &= ~kFlagScan;
    }
  }
  nl.finalize();
  const ClockingScheme s = scheme_cpf_basic(1);
  UnrolledModel um(nl, s, 0, kNoGate);
  size_t xsrc = 0;
  for (GateId g = 0; g < um.comb().size(); ++g) {
    if (um.comb().gate(g).type == GateType::kXSource) ++xsrc;
  }
  EXPECT_EQ(xsrc, 2u) << "one X source per non-scan flop";
}

TEST(Unroll, GoodMachineEquivalence) {
  // The unrolled combinational model evaluated on a pattern must produce
  // exactly the scan-final values the sequential fault simulator computes.
  Netlist nl = gen::make_two_domain_link(3);
  mark_all_scan(nl);
  Rng rng(17);
  for (size_t nd_scheme = 0; nd_scheme < 2; ++nd_scheme) {
    const ClockingScheme s = nd_scheme == 0 ? scheme_cpf_basic(2)
                                            : scheme_cpf_enhanced(2, 3);
    NcpFaultSim fsim(nl, s, kNoGate);
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const NamedCaptureProcedure& ncp = s.procedures[nc];
      UnrolledModel um(nl, s, nc, kNoGate);
      CycleSim csim(um.comb());

      // Random pattern.
      TestPattern p;
      p.ncp_index = nc;
      p.pi_frames.assign(ncp.cycles.size(),
                         std::vector<V3>(nl.inputs().size(), V3::kX));
      p.load.assign(scan_cells(nl).size(), V3::kX);
      p.random_fill(ncp, rng);

      // Sequential reference.
      PatternSet ps("x");
      ps.add(p);
      PatternBatch b = pack_batch(ps, 0, 1, nl, ncp);
      fsim.simulate_good(b);
      const std::vector<V3> want = fsim.expected_unload(0);

      // Unrolled evaluation.
      const auto& vars = um.var_gates();
      const auto& info = um.var_info();
      for (size_t v = 0; v < vars.size(); ++v) {
        const V3 val = info[v].kind == UnrolledModel::VarInfo::kLoad
                           ? p.load[info[v].pos]
                           : p.pi_frames[info[v].frame][info[v].pos];
        csim.set_input(vars[v], Val64::broadcast(val));
      }
      csim.eval();
      const std::vector<GateId> scells = scan_cells(nl);
      for (size_t i = 0; i < scells.size(); ++i) {
        const GateId fin = um.replica(um.num_frames(), scells[i]);
        EXPECT_EQ(csim.value(fin).get(0), want[i])
            << "scheme " << s.name << " ncp " << ncp.name << " cell " << i;
      }
    }
  }
}

TEST(Unroll, StuckAtTranslationCoversAllFrames) {
  Netlist nl = gen::make_counter(2);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_external_full(1, 3);
  UnrolledModel um(nl, s, 1, kNoGate);  // 3 frames
  // A combinational gate fault appears in all 3 replicas.
  GateId some_gate = kNoGate;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).type == GateType::kXor) {
      some_gate = g;
      break;
    }
  }
  ASSERT_NE(some_gate, kNoGate);
  const auto targets =
      um.translate({some_gate, kOutputPin, FaultType::kSa0});
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].sites.size(), 3u);
  EXPECT_TRUE(targets[0].constraints.empty());
  EXPECT_FALSE(targets[0].forced_value);
}

TEST(Unroll, TransitionTranslationHasConstraints) {
  Netlist nl = gen::make_counter(2);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_external_full(1, 3);
  UnrolledModel um(nl, s, 1, kNoGate);  // 3 frames, at-speed cycles 1, 2
  GateId some_gate = nl.find("nx0");
  ASSERT_NE(some_gate, kNoGate);
  const auto targets =
      um.translate({some_gate, kOutputPin, FaultType::kStr});
  ASSERT_EQ(targets.size(), 2u) << "one target per at-speed launch cycle";
  for (const auto& t : targets) {
    EXPECT_EQ(t.sites.size(), 1u);
    ASSERT_EQ(t.constraints.size(), 1u);
    EXPECT_FALSE(t.constraints[0].second) << "STR initial value is 0";
    EXPECT_FALSE(t.forced_value);
    // Constraint gate is the previous frame's replica of the same net.
    EXPECT_EQ(t.constraints[0].first,
              um.replica(t.target_cycle - 1, some_gate));
  }
}

TEST(Unroll, DffBranchFaultTargetsCaptureBuffer) {
  Netlist nl = gen::make_counter(2);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_cpf_basic(1);
  UnrolledModel um(nl, s, 0, kNoGate);
  const GateId ff = nl.dffs()[0];
  const auto targets = um.translate({ff, 0, FaultType::kStr});
  ASSERT_EQ(targets.size(), 1u);  // only cycle 1 is at-speed
  const GateId site = targets[0].sites[0].first;
  EXPECT_EQ(um.comb().gate(site).type, GateType::kBuf);
  EXPECT_EQ(targets[0].sites[0].second, 0);
}

}  // namespace
}  // namespace occ
