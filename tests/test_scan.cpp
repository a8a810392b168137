// Tests: scan insertion and the ATE protocol executor.
#include <gtest/gtest.h>

#include "util/check.h"
#include "core/clock_scheme.h"
#include "dft/protocol.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "gen/circuits.h"
#include "gen/socgen.h"
#include "util/rng.h"

namespace occ {
namespace {

TEST(Scan, InsertionConvertsAllEligibleFlops) {
  Netlist nl = gen::make_counter(8);
  const ScanChains sc = insert_scan(nl, {.num_chains = 2});
  EXPECT_EQ(sc.chains.size(), 2u);
  EXPECT_EQ(sc.total_cells(), 8u);
  size_t muxes = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).flags & kFlagScanMux) ++muxes;
  }
  EXPECT_EQ(muxes, 8u);
  for (GateId ff : nl.dffs()) {
    EXPECT_TRUE(nl.gate(ff).flags & kFlagScan);
    // D now comes from the scan mux.
    EXPECT_TRUE(nl.gate(nl.gate(ff).fanin[0]).flags & kFlagScanMux);
  }
}

TEST(Scan, NoScanFlopsExcluded) {
  Netlist nl = gen::make_shadow_register(4);
  const ScanChains sc = insert_scan(nl, {.num_chains = 1});
  // 4 front + 4 obs scannable; 4 shadow excluded.
  EXPECT_EQ(sc.total_cells(), 8u);
  for (GateId ff : nl.dffs()) {
    if (nl.gate(ff).flags & kFlagNoScan) {
      EXPECT_FALSE(nl.gate(ff).flags & kFlagScan);
    }
  }
}

TEST(Scan, ChainsNeverMixDomains) {
  gen::SocParams prm;
  prm.seed = 11;
  prm.flops = 80;
  prm.gates = 600;
  Netlist nl = gen::generate_soc(prm);
  const ScanChains sc = insert_scan(nl, {.num_chains = 6});
  for (const ScanChain& ch : sc.chains) {
    for (GateId ff : ch.cells) {
      EXPECT_EQ(nl.gate(ff).domain, ch.domain);
    }
  }
}

TEST(Scan, ChainsReasonablyBalanced) {
  Netlist nl = gen::make_counter(32);
  const ScanChains sc = insert_scan(nl, {.num_chains = 4});
  EXPECT_EQ(sc.chains.size(), 4u);
  for (const ScanChain& ch : sc.chains) {
    EXPECT_GE(ch.cells.size(), 6u);
    EXPECT_LE(ch.cells.size(), 10u);
  }
  EXPECT_EQ(sc.max_length(), 8u);
}

TEST(Scan, SlotLookup) {
  Netlist nl = gen::make_counter(8);
  const ScanChains sc = insert_scan(nl, {.num_chains = 2});
  for (const ScanChain& ch : sc.chains) {
    for (uint32_t p = 0; p < ch.cells.size(); ++p) {
      const auto slot = sc.slot_of(ch.cells[p]);
      EXPECT_EQ(slot.position, p);
      EXPECT_EQ(sc.chains[slot.chain].cells[p], ch.cells[p]);
    }
  }
}

TEST(Scan, RequiresChainPerDomain) {
  Netlist nl = gen::make_two_domain_link(4);
  EXPECT_THROW(insert_scan(nl, {.num_chains = 1}), CheckError);
}

TEST(Protocol, RealShiftingMatchesAbstractUnload) {
  // THE key DFT equivalence: ATPG treats scan cells as directly
  // loadable/observable; the protocol executor does real shifting through
  // the muxes. Responses must agree bit-for-bit.
  Netlist nl = gen::make_two_domain_link(3);
  const ScanChains sc = insert_scan(nl, {.num_chains = 2});
  const ClockingScheme s = scheme_cpf_basic(2);
  NcpFaultSim fsim(nl, s, sc.scan_en);
  ScanProtocol proto(nl, sc);
  Rng rng(23);

  for (int trial = 0; trial < 10; ++trial) {
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      TestPattern p;
      p.ncp_index = nc;
      p.pi_frames.assign(s.procedures[nc].cycles.size(),
                         std::vector<V3>(nl.inputs().size(), V3::kX));
      p.load.assign(scan_cells(nl).size(), V3::kX);
      p.random_fill(s.procedures[nc], rng);

      PatternSet ps("x");
      ps.add(p);
      PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[nc]);
      fsim.simulate_good(b);
      const std::vector<V3> abstract = fsim.expected_unload(0);

      const ProtocolResult pr = proto.apply(p, s.procedures[nc], true);
      ASSERT_EQ(pr.unload.size(), abstract.size());
      for (size_t i = 0; i < abstract.size(); ++i) {
        EXPECT_EQ(pr.unload[i], abstract[i])
            << "trial " << trial << " ncp " << nc << " cell " << i;
      }
    }
  }
}

TEST(Protocol, UnequalChainLengthsAlignCorrectly) {
  // Regression: chains shorter than the longest one receive their data
  // in the FINAL len cycles of the shift (leading cycles are padding).
  // A mixed-domain SOC yields unequal chain lengths naturally.
  gen::SocParams prm;
  prm.seed = 77;
  prm.flops = 60;
  prm.gates = 500;
  Netlist nl = gen::generate_soc(prm);
  const ScanChains sc = insert_scan(nl, {.num_chains = 3});
  bool unequal = false;
  for (const ScanChain& ch : sc.chains) {
    unequal = unequal || ch.cells.size() != sc.max_length();
  }
  ASSERT_TRUE(unequal) << "test needs chains of different lengths";

  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  NcpFaultSim fsim(nl, s, sc.scan_en);
  ScanProtocol proto(nl, sc);
  Rng rng(3);
  TestPattern p;
  p.ncp_index = 0;
  p.pi_frames.assign(2, std::vector<V3>(nl.inputs().size(), V3::kX));
  p.load.assign(scan_cells(nl).size(), V3::kX);
  p.random_fill(s.procedures[0], rng);

  PatternSet ps("x");
  ps.add(p);
  PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[0]);
  fsim.simulate_good(b);
  const std::vector<V3> expect = fsim.expected_unload(0);
  const ProtocolResult pr = proto.apply(p, s.procedures[0], true);
  for (size_t i = 0; i < expect.size(); ++i) {
    if (expect[i] == V3::kX) continue;  // non-scan churn: unpredicted
    EXPECT_EQ(pr.unload[i], expect[i]) << "cell " << i;
  }
}

TEST(Protocol, TesterCycleCost) {
  Netlist nl = gen::make_counter(8);
  const ScanChains sc = insert_scan(nl, {.num_chains = 2});
  const ClockingScheme on_chip = scheme_cpf_basic(1);
  const ClockingScheme ext = scheme_external_full(1, 2);
  const size_t c_on = tester_cycles(sc, on_chip.procedures[0], true);
  const size_t c_ext = tester_cycles(sc, ext.procedures[0], false);
  EXPECT_GT(c_on, sc.max_length());
  EXPECT_GT(c_ext, sc.max_length());
  EXPECT_EQ(c_on, sc.max_length() +
                      ncp_tester_cycles(on_chip.procedures[0], true));

  PatternSet ps("x");
  TestPattern p;
  p.ncp_index = 0;
  p.pi_frames.assign(2, std::vector<V3>(nl.inputs().size(), V3::k0));
  p.load.assign(8, V3::k0);
  ps.add(p);
  ps.add(p);
  // Two patterns plus the final unload.
  EXPECT_EQ(total_tester_cycles(sc, ps, on_chip.procedures, true), 3 * c_on);
}

}  // namespace
}  // namespace occ
