// Tests: the SAT backend's final pass end-to-end -- every fault the
// abort ladder (cheap PODEM, SAT probe) leaves aborted gets classified
// (cube or redundancy proof), each verdict agrees with the
// unlimited-budget SAT decision, proven-untestable accounting in the
// coverage metrics, determinism across repeats and shard settings, and
// no final pass when the backend is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "gen/circuits.h"
#include "test_helpers.h"

namespace occ {
namespace sat {
namespace {

/// A skewed XOR miter (gen::make_xor_miter): at widths 24 and 28 some
/// of its redundant faults outlast the deterministic stage's SAT probe,
/// so they reach the final pass.
Netlist hard_netlist(size_t width) {
  Netlist nl = gen::make_xor_miter(width, /*skewed=*/true);
  insert_scan(nl, {.num_chains = 1});
  return nl;
}

AtpgOptions aborting_opts() {
  // A starved PODEM: plenty of aborts for the abort ladder to pick up.
  AtpgOptions opts;
  opts.backtrack_limit = 1;
  opts.abort_retry_factor = 1;
  return opts;
}

SessionResult run_session(const Netlist& nl, EngineOptions engine,
                          const ProgressObserver& observer = {}) {
  SessionConfig cfg;
  cfg.design(nl)
      .scheme(scheme_stuck_at_external(1))
      .atpg(aborting_opts())
      .engine(engine)
      .observer(observer);
  return Session(std::move(cfg)).run();
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
     << ',' << st.conflicts << ',' << st.decisions;
  return os.str();
}

/// Checks the final pass's verdicts against the unlimited-budget SAT
/// decision on fresh miters: `ladder` is the same session without the
/// backend, so its aborted faults are exactly the pass's targets. A
/// target the pass detected has an instance with a test; one it proved
/// untestable has none. Returns the number of verdicts checked.
size_t expect_pass_verdicts_hold(const SessionResult& ladder,
                                 const SessionResult& r) {
  const test::SatOracle oracle(r);
  size_t checked = 0;
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    if (ladder.atpg.faults.status(i) != FaultStatus::kAborted) continue;
    const FaultStatus st = r.atpg.faults.status(i);
    if (st == FaultStatus::kAborted) continue;  // budget-limited: no claim
    EXPECT_EQ(st == FaultStatus::kDetected,
              oracle.testable(r.atpg.faults.fault(i)))
        << "fault " << i;
    EXPECT_TRUE(st == FaultStatus::kDetected ||
                st == FaultStatus::kProvenUntestable)
        << "fault " << i;
    ++checked;
  }
  return checked;
}

TEST(SatAtpg, ClassifiesEveryAbortedFault) {
  for (size_t width : {24u, 28u}) {
    SCOPED_TRACE(width);
    const Netlist nl = hard_netlist(width);
    // First a reference run without the backend, to know aborts exist.
    const SessionResult off = run_session(nl, {});
    ASSERT_GT(off.atpg.faults.count(FaultStatus::kAborted), 0u)
        << "no fault outlasted the SAT probe; the test is vacuous";
    EXPECT_EQ(off.atpg.sat.faults_targeted, 0u);

    const SessionResult on =
        run_session(nl, {.sat_backend = true, .sat_conflict_budget = 0});
    // Unlimited budget: every abort becomes a cube or a proof.
    EXPECT_EQ(on.atpg.faults.count(FaultStatus::kAborted), 0u);
    EXPECT_GT(on.atpg.sat.faults_targeted, 0u);
    EXPECT_EQ(on.atpg.sat.still_aborted, 0u);
    EXPECT_EQ(on.atpg.sat.detected + on.atpg.sat.proven_untestable,
              on.atpg.sat.faults_targeted);
    // The pass resumes the probes' instances instead of lowering them
    // again.
    EXPECT_EQ(on.atpg.sat.relowered_faults, 0u);
    // SAT-found cubes only ever help coverage.
    EXPECT_GE(on.atpg.faults.count(FaultStatus::kDetected),
              off.atpg.faults.count(FaultStatus::kDetected));
    EXPECT_EQ(expect_pass_verdicts_hold(off, on),
              on.atpg.sat.faults_targeted);
  }
}

TEST(SatAtpg, StageDispositionsAreRecorded) {
  const Netlist nl = hard_netlist(24);
  std::vector<std::string> begins;
  const SessionResult r = run_session(
      nl, {.sat_backend = true}, [&](const ProgressEvent& e) {
        if (e.kind == ProgressEvent::Kind::kStageBegin) {
          begins.push_back(e.stage);
        }
      });
  // The final pass runs inside the podem stage, in a nested span.
  ASSERT_EQ(r.atpg.stage_dispositions.size(), 2u);
  EXPECT_EQ(r.atpg.stage_dispositions[0].stage, "random");
  EXPECT_EQ(r.atpg.stage_dispositions[1].stage, "podem");
  const auto podem_span =
      std::find(begins.begin(), begins.end(), "source:podem");
  ASSERT_NE(podem_span, begins.end());
  ASSERT_NE(podem_span + 1, begins.end());
  EXPECT_EQ(*(podem_span + 1), "sat");
  const auto& podem = r.atpg.stage_dispositions[1];
  // Each snapshot tallies the whole fault list.
  const size_t total = r.atpg.faults.size();
  for (const auto& d : r.atpg.stage_dispositions) {
    EXPECT_EQ(d.detected + d.possibly_detected + d.untestable +
                  d.proven_untestable + d.aborted + d.undetected,
              total);
  }
  // The pass only ever consumes aborts, and the podem snapshot is taken
  // after it: its aborted tally is exactly the budget-exhausted
  // leftovers.
  const SatStats& st = r.atpg.sat;
  EXPECT_GT(st.faults_targeted, 0u);
  EXPECT_EQ(st.detected + st.proven_untestable + st.still_aborted,
            st.faults_targeted);
  EXPECT_EQ(podem.aborted, st.still_aborted);
  EXPECT_GE(podem.proven_untestable, st.proven_untestable);
}

TEST(SatAtpg, OffMeansNoFinalPass) {
  const Netlist nl = hard_netlist(24);
  bool sat_span = false;
  const SessionResult r =
      run_session(nl, {}, [&](const ProgressEvent& e) {
        sat_span = sat_span || e.stage == "sat";
      });
  // The probes ran (and did SAT work), but with the backend off nothing
  // re-decides their leftovers.
  EXPECT_GT(r.atpg.escalations, 0u);
  EXPECT_GT(r.atpg.faults.count(FaultStatus::kAborted), 0u);
  EXPECT_EQ(r.atpg.sat.faults_targeted, 0u);
  EXPECT_EQ(r.atpg.sat.detected + r.atpg.sat.proven_untestable +
                r.atpg.sat.still_aborted,
            0u);
  EXPECT_FALSE(sat_span);
  ASSERT_EQ(r.atpg.stage_dispositions.size(), 2u);
  EXPECT_EQ(r.atpg.stage_dispositions[1].stage, "podem");
}

TEST(SatAtpg, DeterministicAcrossRepeatsAndShardSettings) {
  const Netlist nl = hard_netlist(24);
  auto run = [&](size_t fsim_shards, size_t atpg_shards) {
    const SessionResult r =
        run_session(nl, {.fsim = {.shards = fsim_shards},
                         .atpg_shards = atpg_shards,
                         .sat_backend = true});
    EXPECT_GT(r.atpg.sat.faults_targeted, 0u);
    return fingerprint(r);
  };
  const std::string a = run(1, 1);
  EXPECT_EQ(a, run(1, 1));  // repeat
  EXPECT_EQ(a, run(3, 1));  // fsim sharding
  EXPECT_EQ(a, run(2, 4));  // both sharded
}

TEST(SatAtpg, ProvesRedundantFaultUntestable) {
  // x = OR(a, NOT a) is constant 1, so x stuck-at-1 has no test. A
  // PODEM run that aborts on its first backtrack hands it to the SAT
  // rungs of the abort ladder, which must prove that (not just fail to
  // find a cube).
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
  AtpgOptions starved;
  starved.backtrack_limit = 0;
  starved.abort_retry_factor = 1;
  SessionConfig cfg;
  cfg.design(nl).scheme(s).atpg(starved).engine({.sat_backend = true});
  const SessionResult r = Session(std::move(cfg)).run();
  const FaultList& fl = r.atpg.faults;

  EXPECT_EQ(fl.count(FaultStatus::kAborted), 0u);
  EXPECT_GT(fl.count(FaultStatus::kDetected), 0u);
  EXPECT_GT(fl.count(FaultStatus::kProvenUntestable), 0u);
  // Agreement with an unstarved PODEM run: its untestable set is
  // exactly the SAT-proven set, and the detected sets match.
  SessionConfig ref;
  ref.design(nl).scheme(s);
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
  const Netlist nl = hard_netlist(24);
  // An absurdly small budget cannot finish a refutation the probe could
  // not; faults whose miters need search stay aborted rather than
  // getting misclassified.
  const SessionResult r =
      run_session(nl, {.sat_backend = true, .sat_conflict_budget = 1});
  const SatStats& st = r.atpg.sat;
  EXPECT_GT(st.faults_targeted, 0u);
  EXPECT_GT(st.still_aborted, 0u);
  EXPECT_EQ(st.detected + st.proven_untestable + st.still_aborted,
            st.faults_targeted);
  // Whatever was proven with 1 conflict really is proven: re-solving
  // with no budget must agree.
  const SessionResult rf =
      run_session(nl, {.sat_backend = true, .sat_conflict_budget = 0});
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    if (r.atpg.faults.status(i) == FaultStatus::kProvenUntestable) {
      EXPECT_EQ(rf.atpg.faults.status(i), FaultStatus::kProvenUntestable);
    }
  }
}

}  // namespace
}  // namespace sat
}  // namespace occ
