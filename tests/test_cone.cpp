// Tests: cone-limited fault propagation (sim/cone_program.h, fsim/fsim.h)
// -- per-fault detection masks equal a brute-force full good/faulty
// simulation (tests/test_helpers.h RefFaultSim), STR/STF pair
// propagation, fault ordering/dropping invariance, and zero work for
// faults outside every observability cone.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fault/order.h"
#include "fsim/fsim.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace {

using test::RefFaultSim;

Netlist test_soc(uint64_t seed) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.flops = 80;
  prm.gates = 700;
  prm.pis = 12;
  prm.pos = 12;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 3});
  return nl;
}

/// Random batch for one NCP with X holes punched into loads and PIs
/// (respecting frozen-PI frames), so parity covers three-valued
/// propagation, not just fully specified patterns.
PatternBatch make_batch(const Netlist& nl, const ClockingScheme& s,
                        uint32_t ncp, uint64_t seed, PatternSet* ps) {
  Rng rng(seed);
  const NamedCaptureProcedure& proc = s.procedures[ncp];
  for (int i = 0; i < 64; ++i) {
    TestPattern p;
    p.ncp_index = ncp;
    p.pi_frames.assign(proc.cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(proc, rng);
    for (auto& v : p.load) {
      if (rng.chance(0.15)) v = V3::kX;
    }
    for (size_t f = 0; f < p.pi_frames.size(); ++f) {
      if (f > 0 && !proc.cycles[f].pi_change) {
        p.pi_frames[f] = p.pi_frames[f - 1];  // keep frozen frames legal
        continue;
      }
      for (auto& v : p.pi_frames[f]) {
        if (rng.chance(0.15)) v = V3::kX;
      }
    }
    ps->add(std::move(p));
  }
  return pack_batch(*ps, 0, 64, nl, proc);
}

/// Every fault's (hard, possible) probe masks must equal the brute-force
/// reference's -- cone limiting, the dense replay program and the pair
/// passes may change the work, never a verdict bit. Returns the number of
/// detected faults (the callers' non-vacuity check).
size_t expect_parity(const Netlist& nl, const ClockingScheme& s,
                     uint32_t ncp, uint64_t seed) {
  SCOPED_TRACE(s.name + " ncp" + std::to_string(ncp));
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, ncp, seed, &ps);
  const uint64_t live = NcpFaultSim::live_mask(b);

  const RefFaultSim ref(nl, s, se, b);
  NcpFaultSim cone(nl, s, se);
  cone.simulate_good(b);
  const FaultList fl = FaultList::build(nl, s.model);
  size_t detected = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    FsimWork w;
    const auto [hard, poss] = cone.probe_fault(fl.fault(i), live, &w);
    const RefFaultSim::Masks want = ref.masks(fl.fault(i));
    EXPECT_EQ(hard, want.hard) << fault_to_string(nl, fl.fault(i));
    EXPECT_EQ(poss, want.poss) << fault_to_string(nl, fl.fault(i));
    detected += hard != 0;
  }
  return detected;
}

TEST(ConeParity, TransitionSchemesWithXStates) {
  const Netlist nl = test_soc(7);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_cpf_basic(nd), scheme_external_full(nd, 3),
        scheme_external_constrained(nd, 3)}) {
    size_t detected = 0;
    for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
      detected += expect_parity(nl, s, ncp, 1000 + ncp);
    }
    EXPECT_GT(detected, 0u) << s.name;
  }
}

TEST(ConeParity, EnhancedCpfAllProcedures) {
  // Multi-pulse bursts and inter-domain procedures: exercises carried
  // state corruption, multiple at-speed launch frames and the solo
  // fallback for STR/STF pairs whose launch lanes overlap.
  const Netlist nl = test_soc(8);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 4);
  size_t detected = 0;
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    detected += expect_parity(nl, s, ncp, 2000 + ncp);
  }
  EXPECT_GT(detected, 0u);
}

TEST(ConeParity, StuckAtSchemes) {
  const Netlist nl = test_soc(9);
  const ClockingScheme s = scheme_stuck_at_external(nl.num_domains());
  size_t detected = 0;
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    detected += expect_parity(nl, s, ncp, 3000 + ncp);
  }
  EXPECT_GT(detected, 0u);
}

TEST(ConePair, PairProbeMatchesTwoSoloProbes) {
  // Covers single-launch-frame NCPs (cpf_basic) and multi-pulse bursts
  // (cpf_enhanced), where pairs hit the overlap/empty-union fallbacks
  // and the frozen-partner lane purge.
  const Netlist nl = test_soc(10);
  const GateId se = nl.find("scan_en");
  const ClockingScheme basic = scheme_cpf_basic(nl.num_domains());
  const ClockingScheme enh = scheme_cpf_enhanced(nl.num_domains(), 4);
  struct Case {
    const ClockingScheme* s;
    uint32_t ncp;
  };
  size_t pairs = 0;
  for (const Case& c : {Case{&basic, 0}, Case{&enh, 1}, Case{&enh, 2},
                        Case{&enh, 5}}) {
    SCOPED_TRACE(c.s->name + " ncp" + std::to_string(c.ncp));
    PatternSet ps("x");
    const PatternBatch b = make_batch(nl, *c.s, c.ncp, 42 + c.ncp, &ps);
    const uint64_t live = NcpFaultSim::live_mask(b);

    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    const std::vector<uint32_t> partners = str_stf_partners(fl);
    NcpFaultSim sim(nl, *c.s, se);
    sim.simulate_good(b);

    for (uint32_t i = 0; i < fl.size(); ++i) {
      const uint32_t j = partners[i];
      if (j == kNoPartner || j < i) continue;
      ++pairs;
      FsimWork wp, wa, wb;
      const auto [ma, mb] =
          sim.probe_fault_pair(fl.fault(i), fl.fault(j), live, &wp);
      const auto sa = sim.probe_fault(fl.fault(i), live, &wa);
      const auto sb = sim.probe_fault(fl.fault(j), live, &wb);
      ASSERT_EQ(sa.first, ma.hard) << fault_to_string(nl, fl.fault(i));
      ASSERT_EQ(sa.second, ma.poss) << fault_to_string(nl, fl.fault(i));
      ASSERT_EQ(sb.first, mb.hard) << fault_to_string(nl, fl.fault(j));
      ASSERT_EQ(sb.second, mb.poss) << fault_to_string(nl, fl.fault(j));
      ASSERT_LE(wp.gate_evals, wa.gate_evals + wb.gate_evals)
          << "pair pass must not exceed two solo passes";
    }
  }
  EXPECT_GT(pairs, 0u) << "transition list must contain STR/STF pairs";
}

TEST(FaultOrder, ConeOrderIsAPermutation) {
  const Netlist nl = test_soc(11);
  const FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const std::vector<uint32_t> order = cone_sim_order(nl, fl);
  ASSERT_EQ(order.size(), fl.size());
  std::set<uint32_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), fl.size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), fl.size() - 1);
}

TEST(FaultOrder, PartnersAreSymmetricComplementaryPairs) {
  const Netlist nl = test_soc(11);
  const FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const std::vector<uint32_t> partners = str_stf_partners(fl);
  size_t paired = 0;
  for (uint32_t i = 0; i < fl.size(); ++i) {
    const uint32_t j = partners[i];
    if (j == kNoPartner) continue;
    ++paired;
    ASSERT_NE(i, j);
    ASSERT_EQ(partners[j], i);
    const Fault& a = fl.fault(i);
    const Fault& b = fl.fault(j);
    EXPECT_EQ(a.gate, b.gate);
    EXPECT_EQ(a.pin, b.pin);
    EXPECT_TRUE(is_transition(a.type) && is_transition(b.type));
    EXPECT_NE(a.type, b.type);
  }
  EXPECT_GT(paired, 0u);

  // Stuck-at lists never pair.
  const FaultList sa = FaultList::build(nl, FaultModel::kStuckAt);
  for (const uint32_t p : str_stf_partners(sa)) {
    EXPECT_EQ(p, kNoPartner);
  }
}

TEST(FaultOrder, ShardingAndOrderingPreserveDetectionSets) {
  // The sharded engine walks faults in cone order with pair co-ownership;
  // every shard count must reproduce the index-order reference result.
  const Netlist nl = test_soc(12);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, 0, 77, &ps);

  FaultList ref = FaultList::build(nl, FaultModel::kTransition);
  std::vector<std::pair<size_t, unsigned>> dref;
  RefFaultSim(nl, s, se, b).grade(ref, &dref);

  uint64_t cone_evals = 0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    std::vector<std::pair<size_t, unsigned>> dets;
    ShardedFaultSim sim(nl, s, se, shards);
    const FsimStats st = sim.detect_faults(b, fl, &dets);
    EXPECT_EQ(dets, dref);
    for (size_t i = 0; i < fl.size(); ++i) {
      ASSERT_EQ(fl.status(i), ref.status(i));
    }
    // The cone engine's work is deterministic for every shard count.
    if (cone_evals == 0) cone_evals = st.gate_evals;
    EXPECT_EQ(st.gate_evals, cone_evals);
  }
}

TEST(ObsCone, UnstrobedPoConeCostsNothing) {
  // NOT gate feeds only a PO. Without a strobe the fault has no
  // observation point: the cone engine must not evaluate a single gate,
  // and must agree with the reference that the fault is undetected.
  Netlist nl("po_only");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate1(GateType::kNot, a, "g");
  nl.add_output(g, "o");
  nl.finalize();

  ClockingScheme s;
  s.name = "sa_nostrobe";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "cap";
  p.cycles = {{.pulses = kAllDomains,
               .pi_change = true,
               .po_strobe = false,
               .at_speed = false}};
  s.procedures.push_back(p);

  PatternSet ps("x");
  TestPattern t;
  t.ncp_index = 0;
  t.pi_frames = {std::vector<V3>{V3::k1}};
  ps.add(std::move(t));
  const PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[0]);
  const uint64_t live = NcpFaultSim::live_mask(b);

  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  const RefFaultSim ref(nl, s, kNoGate, b);
  NcpFaultSim cone(nl, s, kNoGate);
  cone.simulate_good(b);
  FsimWork cone_work;
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto [hard, poss] = cone.probe_fault(fl.fault(i), live, &cone_work);
    EXPECT_EQ(hard, 0u);
    EXPECT_EQ(ref.masks(fl.fault(i)), (RefFaultSim::Masks{hard, poss}));
  }
  EXPECT_EQ(cone_work.gate_evals, 0u)
      << "no observation point -> zero propagation";

  // Strobing the PO restores full detection, as in the reference.
  s.procedures[0].cycles[0].po_strobe = true;
  FaultList fl1 = FaultList::build(nl, FaultModel::kStuckAt);
  FaultList fl2 = FaultList::build(nl, FaultModel::kStuckAt);
  RefFaultSim(nl, s, kNoGate, b).grade(fl1, nullptr);
  NcpFaultSim cone2(nl, s, kNoGate);
  cone2.detect_faults(b, fl2);
  for (size_t i = 0; i < fl1.size(); ++i) {
    EXPECT_EQ(fl1.status(i), fl2.status(i));
  }
  EXPECT_GT(fl2.count(FaultStatus::kDetected), 0u);
}

}  // namespace
}  // namespace occ
