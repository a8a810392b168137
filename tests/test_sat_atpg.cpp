// Tests: the SatPatternSource stage end-to-end -- every PODEM-aborted
// fault gets classified (cube or redundancy proof), proven-untestable
// accounting in the coverage metrics, determinism across repeats and
// shard settings, and a bit-identical pipeline when the backend is off.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "fsim/sharded.h"
#include "sat/source.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

Netlist hard_netlist(uint64_t seed) {
  Rng rng(seed);
  test::RandomNetlistParams p;
  p.pis = 8;
  p.pos = 6;
  p.flops = 10;
  p.gates = 120;
  return test::random_netlist(rng, p);
}

AtpgOptions aborting_opts() {
  // A starved PODEM: plenty of aborts for the SAT stage to pick up.
  AtpgOptions opts;
  opts.backtrack_limit = 1;
  opts.abort_retry_factor = 1;
  return opts;
}

EngineOptions no_escalation(
    bool sat_backend = false,
    uint64_t sat_budget = EngineOptions{}.sat_conflict_budget) {
  // Escalation is pinned off throughout this file -- these tests pin
  // the abort->SAT-stage handoff contract, and the deterministic
  // stage's in-line SAT probe would otherwise settle the aborts first.
  return {.sat_backend = sat_backend,
          .sat_conflict_budget = sat_budget,
          .atpg_escalation = false};
}

std::string fingerprint(const SessionResult& r) {
  std::ostringstream os;
  for (const TestPattern& p : r.atpg.patterns) {
    os << p.ncp_index << '|';
    for (const auto& frame : p.pi_frames) {
      for (V3 v : frame) os << v3_char(v);
    }
    os << '|';
    for (V3 v : p.load) os << v3_char(v);
    os << '\n';
  }
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    os << static_cast<int>(r.atpg.faults.status(i));
  }
  const SatStats& st = r.atpg.sat;
  os << "|sat:" << st.faults_targeted << ',' << st.detected << ','
     << st.proven_untestable << ',' << st.still_aborted << ',' << st.solves
     << ',' << st.conflicts << ',' << st.decisions << ',' << st.patterns;
  return os.str();
}

TEST(SatAtpg, ClassifiesEveryAbortedFault) {
  for (uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    const Netlist nl = hard_netlist(seed);
    // First a reference run without the backend, to know aborts exist.
    SessionConfig base;
    base.design_ref(nl)
        .scheme(scheme_stuck_at_external(2))
        .atpg(aborting_opts())
        .engine(no_escalation());
    const SessionResult off = Session(base).run();
    ASSERT_GT(off.atpg.faults.count(FaultStatus::kAborted), 0u)
        << "workload produced no aborts; the test is vacuous";
    EXPECT_EQ(off.atpg.sat.faults_targeted, 0u);
    EXPECT_EQ(off.atpg.sat.solves, 0u);

    SessionConfig cfg = base;
    cfg.engine(no_escalation(true, 0));  // unlimited
    const SessionResult on = Session(cfg).run();
    // Unlimited budget: every abort becomes a cube or a proof.
    EXPECT_EQ(on.atpg.faults.count(FaultStatus::kAborted), 0u);
    EXPECT_GT(on.atpg.sat.faults_targeted, 0u);
    EXPECT_EQ(on.atpg.sat.still_aborted, 0u);
    EXPECT_EQ(on.atpg.sat.detected + on.atpg.sat.proven_untestable,
              on.atpg.sat.faults_targeted);
    // SAT-found cubes only ever help coverage.
    EXPECT_GE(on.atpg.faults.count(FaultStatus::kDetected),
              off.atpg.faults.count(FaultStatus::kDetected));
  }
}

TEST(SatAtpg, StageDispositionsAreRecorded) {
  const Netlist nl = hard_netlist(3);
  SessionConfig cfg;
  cfg.design_ref(nl)
      .scheme(scheme_cpf_basic(2))
      .atpg(aborting_opts())
      .engine(no_escalation(true));
  const SessionResult r = Session(cfg).run();
  ASSERT_EQ(r.atpg.stage_dispositions.size(), 3u);
  EXPECT_EQ(r.atpg.stage_dispositions[0].stage, "random");
  EXPECT_EQ(r.atpg.stage_dispositions[1].stage, "podem");
  EXPECT_EQ(r.atpg.stage_dispositions[2].stage, "sat");
  const auto& podem = r.atpg.stage_dispositions[1];
  const auto& sat = r.atpg.stage_dispositions[2];
  // Each snapshot tallies the whole fault list.
  const size_t total = r.atpg.faults.size();
  for (const auto& d : r.atpg.stage_dispositions) {
    EXPECT_EQ(d.detected + d.possibly_detected + d.untestable +
                  d.proven_untestable + d.aborted + d.undetected,
              total);
  }
  // The SAT stage only ever consumes aborts: its targets are the podem
  // stage's aborted pool (minus any dropped collaterally by a flush),
  // and its snapshot's aborted tally is exactly the budget-exhausted
  // leftovers.
  const SatStats& st = r.atpg.sat;
  EXPECT_LE(st.faults_targeted, podem.aborted);
  EXPECT_EQ(st.detected + st.proven_untestable + st.still_aborted,
            st.faults_targeted);
  EXPECT_EQ(sat.aborted, st.still_aborted);
  EXPECT_EQ(sat.proven_untestable, st.proven_untestable);
  EXPECT_GE(sat.detected, podem.detected);
}

TEST(SatAtpg, OffMeansNoSatWorkAndNoSatStage) {
  const Netlist nl = hard_netlist(4);
  SessionConfig cfg;
  cfg.design_ref(nl)
      .scheme(scheme_stuck_at_external(2))
      .atpg(aborting_opts())
      .engine(no_escalation());
  const SessionResult r = Session(cfg).run();
  EXPECT_EQ(r.atpg.sat.solves, 0u);
  EXPECT_EQ(r.atpg.sat.patterns, 0u);
  ASSERT_EQ(r.atpg.stage_dispositions.size(), 2u);
  EXPECT_EQ(r.atpg.stage_dispositions[1].stage, "podem");
  EXPECT_EQ(r.atpg.faults.count(FaultStatus::kProvenUntestable), 0u);
}

TEST(SatAtpg, DeterministicAcrossRepeatsAndShardSettings) {
  const Netlist nl = hard_netlist(5);
  auto run = [&](size_t fsim_shards, size_t atpg_shards) {
    SessionConfig cfg;
    cfg.design_ref(nl)
        .scheme(scheme_cpf_basic(2))
        .atpg(aborting_opts())
        .engine({.fsim = {.shards = fsim_shards},
                 .atpg_shards = atpg_shards,
                 .sat_backend = true,
                 .atpg_escalation = false});
    return fingerprint(Session(cfg).run());
  };
  const std::string a = run(1, 1);
  EXPECT_EQ(a, run(1, 1));  // repeat
  EXPECT_EQ(a, run(3, 1));  // fsim sharding
  EXPECT_EQ(a, run(2, 4));  // both sharded
}

TEST(SatAtpg, ProvesRedundantFaultUntestable) {
  // x = OR(a, NOT a) is constant 1, so x stuck-at-1 has no test. The
  // SAT stage must prove that (not just fail to find a cube) when the
  // fault reaches it as an abort.
  Netlist nl("redundant");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId na = nl.add_gate1(GateType::kNot, a, "na");
  const GateId x = nl.add_gate2(GateType::kOr, a, na, "x");
  const GateId y = nl.add_gate2(GateType::kAnd, x, b, "y");
  const GateId ff = nl.add_dff(y, 0, "ff", kFlagScan);
  nl.add_output(ff, "o");
  nl.finalize();

  const ClockingScheme s = scheme_stuck_at_external(1);
  FaultList fl = FaultList::build(nl, s.model);
  // Route everything through the SAT stage directly.
  for (size_t i = 0; i < fl.size(); ++i) {
    fl.set_status(i, FaultStatus::kAborted);
  }
  const AtpgOptions opts;
  const EngineOptions engine;
  AtpgRunResult res;
  res.scheme_name = s.name;
  res.patterns = PatternSet(s.name);
  res.cubes = PatternSet(s.name);
  Rng rng(opts.seed);
  ShardedFaultSim fsim(nl, s, kNoGate, 1);
  PipelineContext ctx{nl, s, kNoGate, opts, engine, fl, fsim, rng, res,
                      nullptr};
  SatPatternSource src;
  src.generate(ctx);

  EXPECT_EQ(fl.count(FaultStatus::kAborted), 0u);
  EXPECT_GT(fl.count(FaultStatus::kDetected), 0u);
  EXPECT_GT(fl.count(FaultStatus::kProvenUntestable), 0u);
  // Agreement with an unstarved PODEM run: its untestable set is
  // exactly the SAT stage's proven set, and the detected sets match.
  SessionConfig ref;
  ref.design_ref(nl).scheme(s);
  const SessionResult podem = Session(ref).run();
  ASSERT_EQ(podem.atpg.faults.count(FaultStatus::kAborted), 0u);
  ASSERT_EQ(podem.atpg.faults.size(), fl.size());
  for (size_t i = 0; i < fl.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(fl.status(i) == FaultStatus::kProvenUntestable,
              podem.atpg.faults.status(i) == FaultStatus::kUntestable);
    EXPECT_EQ(fl.status(i) == FaultStatus::kDetected,
              podem.atpg.faults.status(i) == FaultStatus::kDetected);
  }

  // Coverage accounting: proven faults leave the TC denominator and
  // count toward ATPG effectiveness.
  const size_t det = fl.count(FaultStatus::kDetected);
  const size_t prv = fl.count(FaultStatus::kProvenUntestable);
  const size_t unt = fl.count(FaultStatus::kUntestable);
  EXPECT_DOUBLE_EQ(fl.test_coverage(),
                   static_cast<double>(det) /
                       static_cast<double>(fl.size() - unt - prv));
  EXPECT_DOUBLE_EQ(fl.atpg_effectiveness(),
                   static_cast<double>(det + unt + prv) /
                       static_cast<double>(fl.size()));
  EXPECT_NE(fl.summary().find("prv="), std::string::npos);
}

TEST(SatAtpg, BudgetExhaustionLeavesFaultAborted) {
  const Netlist nl = hard_netlist(6);
  SessionConfig base;
  base.design_ref(nl)
      .scheme(scheme_stuck_at_external(2))
      .atpg(aborting_opts())
      .engine(no_escalation());
  // A absurdly small budget cannot prove anything UNSAT; faults whose
  // miters need search stay aborted rather than getting misclassified.
  SessionConfig cfg = base;
  cfg.engine(no_escalation(true, 1));
  const SessionResult r = Session(cfg).run();
  const SatStats& st = r.atpg.sat;
  EXPECT_GT(st.faults_targeted, 0u);
  EXPECT_EQ(st.detected + st.proven_untestable + st.still_aborted,
            st.faults_targeted);
  // Whatever was proven with 1 conflict really is proven: re-solving
  // with no budget must agree.
  SessionConfig full = base;
  full.engine(no_escalation(true, 0));
  const SessionResult rf = Session(full).run();
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    if (r.atpg.faults.status(i) == FaultStatus::kProvenUntestable) {
      EXPECT_EQ(rf.atpg.faults.status(i), FaultStatus::kProvenUntestable);
    }
  }
}

}  // namespace
}  // namespace sat
}  // namespace occ
