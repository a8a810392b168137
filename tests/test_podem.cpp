// Tests: PODEM test generation -- detection, untestability, transition
// constraints, clock-sequential initialization, abort behavior.
#include <gtest/gtest.h>

#include "api/session.h"
#include "atpg/podem.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "gen/circuits.h"
#include "test_helpers.h"

namespace occ {
namespace {

void mark_all_scan(Netlist& nl) {
  for (GateId ff : nl.dffs()) nl.mutable_gate(ff).flags |= kFlagScan;
  nl.finalize();
}

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

/// Fault-simulates a single PODEM cube and reports whether it detects
/// the given fault.
bool cube_detects(const Netlist& nl, const ClockingScheme& s, uint32_t nc,
                  const UnrolledModel& um, const std::vector<V3>& cube,
                  size_t fault_idx) {
  FaultList fl = FaultList::build(nl, s.model);
  TestPattern p;
  p.ncp_index = nc;
  p.pi_frames.assign(s.procedures[nc].cycles.size(),
                     std::vector<V3>(nl.inputs().size(), V3::kX));
  p.load.assign(scan_cells(nl).size(), V3::kX);
  const auto& info = um.var_info();
  for (size_t v = 0; v < info.size(); ++v) {
    if (cube[v] == V3::kX) continue;
    if (info[v].kind == UnrolledModel::VarInfo::kLoad) {
      p.load[info[v].pos] = cube[v];
    } else {
      p.pi_frames[info[v].frame][info[v].pos] = cube[v];
    }
  }
  for (size_t f = 1; f < p.pi_frames.size(); ++f) {
    if (!s.procedures[nc].cycles[f].pi_change) {
      p.pi_frames[f] = p.pi_frames[f - 1];
    }
  }
  PatternSet ps("x");
  ps.add(std::move(p));
  PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[nc]);
  NcpFaultSim fsim(nl, s, kNoGate);
  fsim.detect_faults(b, fl);
  return fl.status(fault_idx) == FaultStatus::kDetected;
}

TEST(Podem, DetectsEveryC17Fault) {
  Netlist nl = gen::make_c17();
  const ClockingScheme s = comb_sa_scheme();
  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um);
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto targets = um.translate(fl.fault(i));
    ASSERT_EQ(targets.size(), 1u);
    const auto out = podem.run(targets[0]);
    EXPECT_EQ(out, Podem::Outcome::kDetected)
        << fault_to_string(nl, fl.fault(i));
    if (out == Podem::Outcome::kDetected) {
      EXPECT_TRUE(cube_detects(nl, s, 0, um, podem.assignment(), i))
          << "generated cube must detect "
          << fault_to_string(nl, fl.fault(i));
    }
  }
  EXPECT_GT(podem.stats().decisions, 0u);
}

TEST(Podem, RedundantFaultIsUntestable) {
  // out = OR(a, AND(b, NOT(b))): the AND always evaluates 0, so its
  // output sa0 is redundant.
  Netlist nl("red");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId nb = nl.add_gate1(GateType::kNot, b, "nb");
  const GateId an = nl.add_gate2(GateType::kAnd, b, nb, "an");
  const GateId o = nl.add_gate2(GateType::kOr, a, an, "o");
  nl.add_output(o, "po");
  nl.finalize();
  const ClockingScheme s = comb_sa_scheme();
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um);
  const auto targets = um.translate({an, kOutputPin, FaultType::kSa0});
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(podem.run(targets[0]), Podem::Outcome::kUntestable);
  // The sa1 counterpart is testable (set a=0, observe 1 at output).
  const auto t1 = um.translate({an, kOutputPin, FaultType::kSa1});
  EXPECT_EQ(podem.run(t1[0]), Podem::Outcome::kDetected);
}

TEST(Podem, AbortsUnderTinyBacktrackLimit) {
  Netlist nl("hard");
  // A cone with reconvergence that forces at least one backtrack for the
  // redundant target below.
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId nb = nl.add_gate1(GateType::kNot, b, "nb");
  const GateId an = nl.add_gate2(GateType::kAnd, b, nb, "an");
  const GateId o = nl.add_gate2(GateType::kOr, a, an, "o");
  nl.add_output(o, "po");
  nl.finalize();
  const ClockingScheme s = comb_sa_scheme();
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um, 0);
  const auto targets = um.translate({an, kOutputPin, FaultType::kSa0});
  const auto out = podem.run(targets[0]);
  EXPECT_TRUE(out == Podem::Outcome::kAborted ||
              out == Podem::Outcome::kUntestable);
}

TEST(Podem, SequentialStuckAtThroughBroadside) {
  Netlist nl = gen::make_counter(4);
  mark_all_scan(nl);
  ClockingScheme s = comb_sa_scheme();
  s.procedures[0].cycles[0].po_strobe = false;  // observe via scan only
  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um);
  size_t detected = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto targets = um.translate(fl.fault(i));
    if (targets.empty()) continue;
    if (podem.run(targets[0]) == Podem::Outcome::kDetected) {
      ++detected;
      EXPECT_TRUE(cube_detects(nl, s, 0, um, podem.assignment(), i))
          << fault_to_string(nl, fl.fault(i));
    }
  }
  // A scan counter is highly testable through load/capture/unload; the
  // shortfall is the PO-only faults, unobservable without strobes.
  EXPECT_GT(detected, fl.size() * 3 / 4);
}

TEST(Podem, TransitionLaunchConstraintHonored) {
  Netlist nl = gen::make_counter(4);
  mark_all_scan(nl);
  const ClockingScheme s = scheme_cpf_basic(1);
  FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um);
  size_t detected = 0, tried = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto targets = um.translate(fl.fault(i));
    if (targets.empty()) continue;
    ++tried;
    if (podem.run(targets[0]) == Podem::Outcome::kDetected) {
      ++detected;
      EXPECT_TRUE(cube_detects(nl, s, 0, um, podem.assignment(), i))
          << fault_to_string(nl, fl.fault(i))
          << " -- PODEM claims detection but fault-sim disagrees "
             "(launch condition broken?)";
    }
  }
  EXPECT_GT(tried, 0u);
  EXPECT_GT(detected, 0u);
}

TEST(Podem, ClockSequentialInitEnablesShadowTransitionTests) {
  // The paper's experiment (c)->(d) mechanism: transition faults behind
  // non-scan state need a third (initialization) pulse.
  Netlist nl = gen::make_shadow_register(2);
  for (GateId ff : nl.dffs()) {
    if (!(nl.gate(ff).flags & kFlagNoScan)) {
      nl.mutable_gate(ff).flags |= kFlagScan;
    }
  }
  nl.finalize();

  // Target: STR on a 'mix' gate (consumes shadow state).
  const GateId mix = nl.find("mix0");
  ASSERT_NE(mix, kNoGate);
  const Fault target{mix, kOutputPin, FaultType::kStr};

  // 2-pulse scheme: frame-0 value of mix depends on uninitialized shadow
  // state -> launch condition cannot be justified.
  {
    const ClockingScheme s = scheme_cpf_basic(1);
    UnrolledModel um(nl, s, 0, kNoGate);
    Podem podem(um);
    const auto targets = um.translate(target);
    ASSERT_FALSE(targets.empty());
    bool any_detected = false;
    for (const auto& t : targets) {
      any_detected |= podem.run(t) == Podem::Outcome::kDetected;
    }
    EXPECT_FALSE(any_detected)
        << "two pulses cannot initialize the shadow register";
  }
  // 3-pulse scheme (enhanced CPF): pulse 1 initializes, 2 launches, 3
  // captures.
  {
    const ClockingScheme s = scheme_cpf_enhanced(1, 3);
    bool any_detected = false;
    for (uint32_t nc = 0; nc < s.procedures.size() && !any_detected; ++nc) {
      if (s.procedures[nc].cycles.size() < 3) continue;
      UnrolledModel um(nl, s, nc, kNoGate);
      Podem podem(um);
      for (const auto& t : um.translate(target)) {
        if (podem.run(t) == Podem::Outcome::kDetected) {
          any_detected = true;
          // Cross-check with the fault simulator.
          FaultList fl = FaultList::build(nl, FaultModel::kTransition);
          size_t idx = fl.size();
          for (size_t i = 0; i < fl.size(); ++i) {
            if (fl.fault(i) == target) idx = i;
          }
          ASSERT_NE(idx, fl.size());
          EXPECT_TRUE(
              cube_detects(nl, s, nc, um, podem.assignment(), idx));
          break;
        }
      }
    }
    EXPECT_TRUE(any_detected)
        << "a third pulse must make the shadow cone transition-testable";
  }
}

/// The redundant miter fault under the scheme's own fault model: sa0
/// needs good(m) = 1, STR needs a 0->1 launch on a constant-0 net --
/// both unsatisfiable, both only provably so by exhausting the search.
Fault miter_fault(const Netlist& nl, const ClockingScheme& s) {
  const GateId m = nl.find("m");
  return {m, kOutputPin,
          s.model == FaultModel::kStuckAt ? FaultType::kSa0
                                          : FaultType::kStr};
}

TEST(Podem, RedundantMiterExhaustsBacktrackLimitOnEveryScheme) {
  // On every Table-1 clocking scheme, a redundant fault under a zero
  // backtrack limit (the first conflict aborts) must abort or be pruned
  // -- never be misclassified as detected -- and the unlimited-budget
  // SAT decision must prove every target undetectable.
  const Netlist nl = gen::make_xor_miter(4);
  const ClockingScheme schemes[] = {
      scheme_stuck_at_external(1),      scheme_external_full(1, 3),
      scheme_cpf_basic(1),              scheme_cpf_enhanced(1, 3),
      scheme_external_constrained(1, 3),
  };
  for (const ClockingScheme& s : schemes) {
    SCOPED_TRACE(s.name);
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const UnrolledModel um(nl, s, nc, kNoGate);
      const auto targets = um.translate(miter_fault(nl, s));
      // The complete search proves redundancy on every target cycle.
      for (const auto& t : targets) {
        EXPECT_NE(test::sat_verdict(um, t),
                  sat::Verdict::kSat)
            << "ncp " << nc;
      }
      // The dominator/implication prunes may prove some target cycles
      // untestable before the first conflict -- that is the point of the
      // heuristics -- but PODEM never claims a detection.
      Podem podem(um, 0);
      for (const auto& t : targets) {
        EXPECT_NE(podem.run(t), Podem::Outcome::kDetected) << "ncp " << nc;
      }
    }
  }
}

TEST(Podem, RedundantMiterProvenUntestableUnderGenerousLimit) {
  // Same targets with room to exhaust: PODEM must settle on kUntestable
  // (never kDetected, never kAborted), as the unlimited-budget SAT
  // decision does.
  const Netlist nl = gen::make_xor_miter(4);
  const ClockingScheme schemes[] = {scheme_stuck_at_external(1),
                                    scheme_cpf_basic(1)};
  for (const ClockingScheme& s : schemes) {
    SCOPED_TRACE(s.name);
    const UnrolledModel um(nl, s, 0, kNoGate);
    const auto targets = um.translate(miter_fault(nl, s));
    ASSERT_FALSE(targets.empty());
    Podem podem(um, 200000);
    for (const auto& t : targets) {
      EXPECT_EQ(podem.run(t), Podem::Outcome::kUntestable);
      EXPECT_EQ(test::sat_verdict(um, t),
                sat::Verdict::kUnsat);
    }
  }
}

TEST(Podem, AbortedFaultsReachSatBackendUnchanged) {
  // Every cheap-PODEM abort reaches the SAT probe verbatim, whatever its
  // conflict budget: the probe count is the same at 2,000 conflicts and
  // at the default budget. The skewed miter is sized so some probes run
  // out of 2,000 conflicts (width 24; gen::make_xor_miter), and the only
  // aborting faults are the redundant miter faults (testable faults
  // need far fewer than the budgeted backtracks), hence the larger
  // budget emits no cubes and nothing is collaterally re-classified.
  Netlist nl = gen::make_xor_miter(24, /*skewed=*/true);
  insert_scan(nl, {.num_chains = 1});
  auto run = [&](uint64_t budget) {
    SessionConfig cfg;
    cfg.design(nl)
        .scheme(scheme_stuck_at_external(1))
        .engine({.fsim = {.shards = 1},
                 .atpg_shards = 1,
                 .sat_conflict_budget = budget});
    AtpgOptions opts;
    opts.backtrack_limit = 30;
    cfg.atpg(opts);
    return Session(std::move(cfg)).run();
  };
  const SessionResult low = run(2000);
  const SessionResult r = run(EngineOptions{}.sat_conflict_budget);

  const FaultList& fl = r.atpg.faults;
  EXPECT_GT(low.atpg.faults.count(FaultStatus::kAborted), 0u)
      << "miter faults must outlast a 2,000-conflict probe";
  EXPECT_EQ(r.atpg.escalations, low.atpg.escalations);
  // Every fault aborted at the low budget is redundant: the default
  // budget proves all of them untestable and detects none.
  EXPECT_EQ(fl.count(FaultStatus::kAborted), 0u);
  for (size_t i = 0; i < fl.size(); ++i) {
    const FaultStatus was = low.atpg.faults.status(i);
    EXPECT_EQ(fl.status(i), was == FaultStatus::kAborted
                                ? FaultStatus::kProvenUntestable
                                : was)
        << "fault " << i;
  }
}

TEST(Podem, StatsAccumulate) {
  Netlist nl = gen::make_c17();
  const ClockingScheme s = comb_sa_scheme();
  UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um);
  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  for (size_t i = 0; i < 5; ++i) {
    podem.run(um.translate(fl.fault(i))[0]);
  }
  EXPECT_EQ(podem.stats().runs, 5u);
  EXPECT_GT(podem.stats().implications, 0u);
}

}  // namespace
}  // namespace occ
