// Tests: the abort ladder's SAT probe end-to-end -- every fault a
// starved PODEM aborts gets one probe at EngineOptions::
// sat_conflict_budget; at budget 0 (unlimited) each becomes a cube or a
// redundancy proof that agrees with the complete SAT decision, a budget
// too small to finish leaves the fault aborted rather than
// misclassified, proven-untestable accounting in the coverage metrics
// and the summary line, determinism across repeats and shard settings,
// and no SAT stage span of its own.
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
/// of its redundant faults need more than 2,000 conflicts to refute.
Netlist hard_netlist(size_t width) {
  Netlist nl = gen::make_xor_miter(width, /*skewed=*/true);
  insert_scan(nl, {.num_chains = 1});
  return nl;
}

SessionResult run_session(const Netlist& nl, EngineOptions engine,
                          uint32_t backtrack_limit = 1,
                          const ProgressObserver& observer = {}) {
  // A starved PODEM: plenty of aborts for the SAT probe to pick up.
  AtpgOptions opts;
  opts.backtrack_limit = backtrack_limit;
  SessionConfig cfg;
  cfg.design(nl)
      .scheme(scheme_stuck_at_external(1))
      .atpg(opts)
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
  os << "|esc:" << r.atpg.escalations << ',' << r.atpg.sat_probe_wins
     << ',' << r.atpg.sat_refutations << "|sat:" << st.solves << ','
     << st.conflicts << ',' << st.decisions;
  return os.str();
}

TEST(SatAtpg, ClassifiesEveryAbortedFault) {
  for (size_t width : {24u, 28u}) {
    SCOPED_TRACE(width);
    const Netlist nl = hard_netlist(width);
    // Unlimited budget: every probe settles its instance, so every
    // abort becomes a cube or a proof.
    const SessionResult r = run_session(nl, {.sat_conflict_budget = 0});
    const FaultList& fl = r.atpg.faults;
    EXPECT_GT(r.atpg.escalations, 0u);
    EXPECT_EQ(r.atpg.sat_probe_wins, r.atpg.escalations);
    EXPECT_EQ(fl.count(FaultStatus::kAborted), 0u);
    EXPECT_GT(fl.count(FaultStatus::kProvenUntestable), 0u);
    // Every proven-untestable fault had at least one instance refuted,
    // and every refutation is one of the probe's wins.
    EXPECT_GE(r.atpg.sat_refutations,
              fl.count(FaultStatus::kProvenUntestable));
    EXPECT_LE(r.atpg.sat_refutations, r.atpg.sat_probe_wins);
    // Each verdict agrees with the complete search on the session's own
    // capture model.
    const test::SatOracle oracle(r);
    for (size_t i = 0; i < fl.size(); ++i) {
      EXPECT_EQ(fl.status(i) == FaultStatus::kDetected,
                oracle.testable(fl.fault(i)))
          << "fault " << i;
    }
  }
}

TEST(SatAtpg, StageDispositionsAreRecorded) {
  const Netlist nl = hard_netlist(24);
  std::vector<std::string> spans;  // stage begin/end events, in order
  const SessionResult r =
      run_session(nl, {}, 1, [&](const ProgressEvent& e) {
        if (e.kind != ProgressEvent::Kind::kProgress) spans.push_back(e.stage);
      });
  // The probe runs inside the podem stage; it has no span of its own:
  // the podem span's begin is followed directly by its end.
  const auto podem_span =
      std::find(spans.begin(), spans.end(), "source:podem");
  ASSERT_NE(podem_span, spans.end());
  ASSERT_NE(podem_span + 1, spans.end());
  EXPECT_EQ(*(podem_span + 1), "source:podem");
  ASSERT_EQ(r.atpg.stage_dispositions.size(), 2u);
  EXPECT_EQ(r.atpg.stage_dispositions[0].stage, "random");
  EXPECT_EQ(r.atpg.stage_dispositions[1].stage, "podem");
  // Each snapshot tallies the whole fault list.
  const size_t total = r.atpg.faults.size();
  for (const auto& d : r.atpg.stage_dispositions) {
    EXPECT_EQ(d.detected + d.possibly_detected + d.untestable +
                  d.proven_untestable + d.aborted + d.undetected,
              total);
  }
  // The podem snapshot is taken after the probes: their redundancy
  // proofs show in it.
  const auto& podem = r.atpg.stage_dispositions[1];
  EXPECT_GT(podem.proven_untestable, 0u);
  EXPECT_EQ(podem.aborted, r.atpg.faults.count(FaultStatus::kAborted));
}

TEST(SatAtpg, DeterministicAcrossRepeatsAndShardSettings) {
  const Netlist nl = hard_netlist(24);
  auto run = [&](size_t fsim_shards, size_t atpg_shards) {
    const SessionResult r = run_session(
        nl, {.fsim = {.shards = fsim_shards}, .atpg_shards = atpg_shards});
    EXPECT_GT(r.atpg.escalations, 0u);
    return fingerprint(r);
  };
  const std::string a = run(1, 1);
  EXPECT_EQ(a, run(1, 1));  // repeat
  EXPECT_EQ(a, run(3, 1));  // fsim sharding
  EXPECT_EQ(a, run(2, 4));  // both sharded
}

TEST(SatAtpg, DefaultBudgetSettlesStarvedMiter) {
  // 20 backtracks, the bench_engines atpg.sat workload: at the default
  // budget every probe settles, while a 2,000-conflict budget leaves
  // some redundant faults aborted (6 when measured; 5,000 leaves none).
  // Raising the budget only turns those into proofs.
  const Netlist nl = hard_netlist(24);
  const SessionResult r = run_session(nl, {}, 20);
  const SessionResult low =
      run_session(nl, {.sat_conflict_budget = 2000}, 20);
  const FaultList& fl = r.atpg.faults;
  EXPECT_EQ(fl.count(FaultStatus::kAborted), 0u);
  EXPECT_GT(fl.count(FaultStatus::kProvenUntestable), 0u);
  EXPECT_GT(low.atpg.faults.count(FaultStatus::kAborted), 0u);
  for (size_t i = 0; i < fl.size(); ++i) {
    SCOPED_TRACE(i);
    if (low.atpg.faults.status(i) == FaultStatus::kAborted) {
      EXPECT_EQ(fl.status(i), FaultStatus::kProvenUntestable);
    } else {
      EXPECT_EQ(fl.status(i), low.atpg.faults.status(i));
    }
  }
}

TEST(SatAtpg, ProvesRedundantFaultUntestable) {
  // x = OR(a, NOT a) is constant 1, so x stuck-at-1 has no test. A
  // PODEM run that aborts on its first backtrack hands it to the SAT
  // probe, which must prove that (not just fail to find a cube).
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
  SessionConfig cfg;
  cfg.design(nl).scheme(s).atpg(starved);
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
  // The session's summary line reports the proofs next to the
  // structural untestables.
  EXPECT_NE(r.atpg.summary().find(" proven_untestable=" +
                                  std::to_string(prv) + " "),
            std::string::npos)
      << r.atpg.summary();
}

TEST(SatAtpg, BudgetExhaustionLeavesFaultAborted) {
  const Netlist nl = hard_netlist(24);
  // An absurdly small budget cannot finish a refutation that needs
  // search; faults whose miters need it stay aborted rather than
  // getting misclassified.
  const SessionResult r = run_session(nl, {.sat_conflict_budget = 1});
  EXPECT_GT(r.atpg.faults.count(FaultStatus::kAborted), 0u);
  EXPECT_LT(r.atpg.sat_probe_wins, r.atpg.escalations);
  // Whatever was decided with 1 conflict really is decided: deciding
  // with no budget must agree on every detection and every proof.
  const SessionResult rf = run_session(nl, {.sat_conflict_budget = 0});
  size_t decided = 0;
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    const FaultStatus st = r.atpg.faults.status(i);
    if (st == FaultStatus::kDetected ||
        st == FaultStatus::kProvenUntestable) {
      ++decided;
      EXPECT_EQ(rf.atpg.faults.status(i), st) << "fault " << i;
    }
  }
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace sat
}  // namespace occ
