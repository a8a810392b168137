// Tests: end-to-end ATPG engine (random + deterministic + compaction).
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "dft/scan.h"
#include "gen/circuits.h"
#include "test_helpers.h"

namespace occ {
namespace {

ClockingScheme comb_sa_scheme() {
  ClockingScheme s;
  s.name = "comb_sa";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "strobe";
  p.cycles = {{.pulses = kAllDomains,
               .pi_change = true,
               .po_strobe = true,
               .at_speed = false}};
  s.procedures.push_back(p);
  return s;
}

TEST(Engine, C17FullCoverage) {
  Netlist nl = gen::make_c17();
  const AtpgRunResult r = test::session_atpg(nl, comb_sa_scheme(), kNoGate);
  EXPECT_DOUBLE_EQ(r.test_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
  EXPECT_GT(r.pattern_count(), 0u);
  EXPECT_LT(r.pattern_count(), 23u) << "compaction should keep this small";
  EXPECT_FALSE(r.summary().empty());
}

TEST(Engine, AdderFullCoverage) {
  Netlist nl = gen::make_adder(8);
  const AtpgRunResult r = test::session_atpg(nl, comb_sa_scheme(), kNoGate);
  EXPECT_DOUBLE_EQ(r.test_coverage(), 1.0);
}

TEST(Engine, Alu4HighCoverage) {
  Netlist nl = gen::make_alu4();
  const AtpgRunResult r = test::session_atpg(nl, comb_sa_scheme(), kNoGate);
  EXPECT_GT(r.test_coverage(), 0.98);
  EXPECT_EQ(r.faults.count(FaultStatus::kUndetected), 0u)
      << "every fault must be classified detected/untestable/aborted";
}

TEST(Engine, ScanCounterStuckAt) {
  Netlist nl = gen::make_counter(6);
  insert_scan(nl, {.num_chains = 1});
  const GateId se = nl.find("scan_en");
  const AtpgRunResult r =
      test::session_atpg(nl, scheme_stuck_at_external(1), se);
  EXPECT_GT(r.test_coverage(), 0.97);
}

TEST(Engine, TransitionCoverageOrderingOnSharedCircuit) {
  // The (b) >= (e) >= (c) coverage ordering must already show on a small
  // two-domain circuit.
  Netlist nl = gen::make_two_domain_link(4);
  insert_scan(nl, {.num_chains = 2});
  const GateId se = nl.find("scan_en");
  AtpgOptions opts;
  opts.random_rounds = 8;

  const AtpgRunResult rb =
      test::session_atpg(nl, scheme_external_full(2, 3), se, opts);
  const AtpgRunResult rc =
      test::session_atpg(nl, scheme_cpf_basic(2), se, opts);
  const AtpgRunResult rd =
      test::session_atpg(nl, scheme_cpf_enhanced(2, 3), se, opts);

  // Constraint-untestable faults stay in the fault-coverage denominator,
  // which is where the clocking capability differences show.
  EXPECT_GE(rb.fault_coverage() + 1e-9, rc.fault_coverage());
  EXPECT_GE(rd.fault_coverage() + 1e-9, rc.fault_coverage())
      << "inter-domain procedures must not lose coverage";
  EXPECT_GT(rd.fault_coverage(), rc.fault_coverage())
      << "cross-domain glue logic requires inter-domain launch/capture";
}

TEST(Engine, DeterministicForSeed) {
  Netlist nl = gen::make_alu4();
  AtpgOptions opts;
  opts.seed = 777;
  const AtpgRunResult r1 =
      test::session_atpg(nl, comb_sa_scheme(), kNoGate, opts);
  const AtpgRunResult r2 =
      test::session_atpg(nl, comb_sa_scheme(), kNoGate, opts);
  EXPECT_EQ(r1.pattern_count(), r2.pattern_count());
  EXPECT_EQ(r1.faults.count(FaultStatus::kDetected),
            r2.faults.count(FaultStatus::kDetected));
}

TEST(Engine, CompactionNeverLosesCoverage) {
  Netlist nl = gen::make_counter(6);
  insert_scan(nl, {.num_chains = 1});
  const GateId se = nl.find("scan_en");
  AtpgOptions with, without;
  with.reverse_compaction = true;
  without.reverse_compaction = false;
  const AtpgRunResult rw =
      test::session_atpg(nl, scheme_stuck_at_external(1), se, with);
  const AtpgRunResult ro =
      test::session_atpg(nl, scheme_stuck_at_external(1), se, without);
  EXPECT_EQ(rw.faults.count(FaultStatus::kDetected),
            ro.faults.count(FaultStatus::kDetected))
      << "reverse-order compaction must be detection-preserving";
  EXPECT_LE(rw.pattern_count(), ro.pattern_count());
}

TEST(Engine, PatternsValidateAgainstTheirNcp) {
  Netlist nl = gen::make_counter(4);
  insert_scan(nl, {.num_chains = 1});
  const GateId se = nl.find("scan_en");
  const ClockingScheme s = scheme_cpf_basic(1);
  const AtpgRunResult r = test::session_atpg(nl, s, se);
  for (const TestPattern& p : r.patterns) {
    ASSERT_LT(p.ncp_index, s.procedures.size());
    p.validate(nl, s.procedures[p.ncp_index]);
  }
}

TEST(Engine, ClassificationRunsWhenRequested) {
  Netlist nl = gen::make_shadow_register(3);
  insert_scan(nl, {.num_chains = 1});
  const GateId se = nl.find("scan_en");
  AtpgOptions opts;
  opts.classify = true;
  const AtpgRunResult r = test::session_atpg(nl, scheme_cpf_basic(1), se, opts);
  // The shadow circuit leaves transition faults untested; the classifier
  // must attribute at least some of them.
  EXPECT_GT(r.classes.total_classified, 0u);
  EXPECT_FALSE(r.classes.to_string().empty());
}

TEST(Engine, TransitionPatternsExceedStuckAt) {
  // Paper: transition pattern counts are a multiple of stuck-at counts.
  Netlist nl = gen::make_counter(8);
  insert_scan(nl, {.num_chains = 1});
  const GateId se = nl.find("scan_en");
  const AtpgRunResult sa =
      test::session_atpg(nl, scheme_stuck_at_external(1), se);
  const AtpgRunResult tf =
      test::session_atpg(nl, scheme_external_full(1, 3), se);
  EXPECT_GT(tf.pattern_count(), sa.pattern_count());
}

}  // namespace
}  // namespace occ
