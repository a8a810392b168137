// Tests: the PODEM search heuristic (the dominator early abort) and the
// soundness of PODEM's verdicts.
//
//   * dominator early abort never reclassifies a testable fault:
//     crafted guaranteed-prune circuits (blocked dominators, blocked
//     site pins, MUX dominators, every scan-in pin under a frozen
//     scan_en);
//   * full-budget PODEM agrees with the unlimited-budget SAT verdict
//     fault for fault on random netlists under all five Table-1
//     clocking schemes, launch constraints included;
//   * session-level soundness with the SAT backend on: every
//     (proven-)untestable verdict agrees with the unlimited-budget SAT
//     verdict on the session's own capture model;
//   * the whole abort ladder on the workers: committed results,
//     ladder and SAT counters bit-identical across repeats and
//     atpg_shards {1, 2, 3, 8}, non-vacuously (some abort must reach
//     the SAT probe).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "gen/socgen.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace {

using test::RandomNetlistParams;
using test::random_netlist;

// ---------------------------------------------------------------------------
// Dominator early abort: only ever kills untestable faults.

ClockingScheme comb_scheme() {
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

TEST(AtpgHeuristics, DominatorAbortFiresOnlyOnBlockedCones) {
  // u1 feeds a dominator AND whose side input is tied to the
  // controlling value: every u1 fault is untestable and the heuristic
  // must classify it with zero search. u2 is plainly observable.
  Netlist nl("dom");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId t0 = nl.add_tie(false, "t0");
  const GateId u1 = nl.add_gate2(GateType::kAnd, a, b, "u1");
  const GateId blocked = nl.add_gate2(GateType::kAnd, u1, t0, "blocked");
  nl.add_output(blocked, "po1");
  const GateId u2 = nl.add_gate2(GateType::kOr, a, b, "u2");
  nl.add_output(u2, "po2");
  nl.finalize();

  const ClockingScheme s = comb_scheme();
  const UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um, 4096);
  using Verdict = sat::Verdict;

  for (const FaultType t : {FaultType::kSa0, FaultType::kSa1}) {
    const auto blocked_targets = um.translate({u1, kOutputPin, t});
    ASSERT_EQ(blocked_targets.size(), 1u);
    const Podem::Stats before = podem.stats();
    EXPECT_EQ(podem.run(blocked_targets[0]), Podem::Outcome::kUntestable);
    const Podem::Stats delta = podem.stats() - before;
    EXPECT_GE(delta.dominator_prunes, 1u);
    EXPECT_EQ(delta.decisions, 0u) << "prune must precede any search";
    // The complete (unlimited-budget SAT) search agrees.
    EXPECT_NE(test::sat_verdict(um, blocked_targets[0]), Verdict::kSat);

    // Control: the observable twin is testable under both searches.
    const auto open_targets = um.translate({u2, kOutputPin, t});
    ASSERT_EQ(open_targets.size(), 1u);
    EXPECT_EQ(podem.run(open_targets[0]), Podem::Outcome::kDetected);
    EXPECT_EQ(test::sat_verdict(um, open_targets[0]), Verdict::kSat);
  }
}

TEST(AtpgHeuristics, DominatorAbortCoversBlockedPinsAndMuxDominators) {
  // (a) A branch site whose own gate ignores the faulted pin: pin 0 of
  // `masked` sits beside a tied controlling input. (b) A MUX dominator
  // whose constant select picks an out-of-cone data input: every path
  // from u2 runs through `pick_c`, which always passes c. `pick_u` picks
  // its in-cone input instead and must stay open.
  Netlist nl("blocked_pins");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId t0 = nl.add_tie(false, "t0");
  const GateId u1 = nl.add_gate2(GateType::kAnd, a, b, "u1");
  const GateId masked = nl.add_gate2(GateType::kAnd, u1, t0, "masked");
  nl.add_output(masked, "po1");
  nl.add_output(u1, "po2");
  const GateId u2 = nl.add_gate2(GateType::kOr, a, b, "u2");
  const GateId pick_c = nl.add_mux2(t0, c, u2, "pick_c");
  nl.add_output(pick_c, "po3");
  const GateId u3 = nl.add_gate2(GateType::kXor, a, b, "u3");
  const GateId pick_u = nl.add_mux2(t0, u3, c, "pick_u");
  nl.add_output(pick_u, "po4");
  nl.finalize();

  const ClockingScheme s = comb_scheme();
  const UnrolledModel um(nl, s, 0, kNoGate);
  Podem podem(um, 4096);
  using Verdict = sat::Verdict;
  const auto expect_pruned = [&](const Fault& f) {
    const auto targets = um.translate(f);
    ASSERT_EQ(targets.size(), 1u);
    const Podem::Stats before = podem.stats();
    EXPECT_EQ(podem.run(targets[0]), Podem::Outcome::kUntestable);
    const Podem::Stats delta = podem.stats() - before;
    EXPECT_EQ(delta.dominator_prunes, 1u);
    EXPECT_EQ(delta.decisions, 0u) << "prune must precede any search";
    EXPECT_NE(test::sat_verdict(um, targets[0]), Verdict::kSat);
  };
  const auto expect_open = [&](const Fault& f) {
    const auto targets = um.translate(f);
    ASSERT_EQ(targets.size(), 1u);
    const Podem::Stats before = podem.stats();
    EXPECT_EQ(podem.run(targets[0]), Podem::Outcome::kDetected);
    EXPECT_EQ((podem.stats() - before).dominator_prunes, 0u);
    EXPECT_EQ(test::sat_verdict(um, targets[0]), Verdict::kSat);
  };
  for (const FaultType t : {FaultType::kSa0, FaultType::kSa1}) {
    SCOPED_TRACE(static_cast<int>(t));
    expect_pruned({masked, 0, t});          // (a) AND side input at 0
    expect_pruned({pick_c, 2, t});          // (a) MUX picks the other pin
    expect_pruned({u2, kOutputPin, t});     // (b) MUX dominator
    expect_open({u1, kOutputPin, t});       // observable at po2
    expect_open({u3, kOutputPin, t});       // MUX picks the cone
    expect_open({pick_u, 1, t});            // the picked pin itself
  }
}

TEST(AtpgHeuristics, FrozenScanEnablePrunesEveryScanInPin) {
  // Every capture frame ties scan_en to 0 under a scheme that freezes
  // it, so no scan mux ever passes its scan-in pin (pin 2): each such
  // instance is untestable with zero decisions. Under scheme (a) the
  // select is a PI and the pin is testable, so nothing may be pruned.
  gen::SocParams prm;
  prm.seed = 8;
  prm.flops = 10;
  prm.gates = 100;
  prm.pis = 8;
  prm.pos = 8;
  Netlist nl = gen::generate_soc(prm);
  const GateId se = insert_scan(nl, {.num_chains = 2}).scan_en;
  std::vector<GateId> muxes;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).flags & kFlagScanMux) muxes.push_back(g);
  }
  ASSERT_FALSE(muxes.empty());
  using Verdict = sat::Verdict;

  const size_t d = nl.num_domains();
  size_t pruned = 0;
  for (const ClockingScheme& s :
       {scheme_external_full(d, 3), scheme_cpf_basic(d),
        scheme_cpf_enhanced(d, 3), scheme_external_constrained(d, 3)}) {
    SCOPED_TRACE(s.name);
    ASSERT_TRUE(s.scan_en_frozen);
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const UnrolledModel um(nl, s, nc, se);
      Podem podem(um, 300);
      for (GateId m : muxes) {
        for (const FaultType t : {FaultType::kStr, FaultType::kStf}) {
          for (const UnrolledFault& uf : um.translate({m, 2, t})) {
            const Podem::Stats before = podem.stats();
            EXPECT_EQ(podem.run(uf), Podem::Outcome::kUntestable);
            const Podem::Stats delta = podem.stats() - before;
            EXPECT_EQ(delta.decisions, 0u);
            EXPECT_EQ(delta.dominator_prunes, 1u);
            EXPECT_NE(test::sat_verdict(um, uf), Verdict::kSat);
            ++pruned;
          }
        }
      }
    }
  }
  EXPECT_GT(pruned, 0u);

  const ClockingScheme sa = scheme_stuck_at_external(d);
  ASSERT_FALSE(sa.scan_en_frozen);
  const UnrolledModel um(nl, sa, 0, se);
  Podem podem(um, 20000);
  for (GateId m : muxes) {
    for (const FaultType t : {FaultType::kSa0, FaultType::kSa1}) {
      for (const UnrolledFault& uf : um.translate({m, 2, t})) {
        const Podem::Stats before = podem.stats();
        const Podem::Outcome out = podem.run(uf);
        EXPECT_EQ((podem.stats() - before).dominator_prunes, 0u);
        EXPECT_EQ(out == Podem::Outcome::kDetected,
                  test::sat_verdict(um, uf) == Verdict::kSat);
      }
    }
  }
}

TEST(AtpgHeuristics, PodemOutcomesMatchSatOnRandomNetlists) {
  // With a budget deep enough that PODEM does not abort, PODEM and the
  // unlimited-budget SAT decision are two complete searches of the same
  // space: outcomes must match fault for fault (cubes may differ;
  // classifications may not). Every Table-1 scheme, so the broadside
  // ones with their launch constraints are searched too, and each must
  // compare some untestable instance.
  const ClockingScheme schemes[] = {
      scheme_stuck_at_external(1),      scheme_external_full(1, 3),
      scheme_cpf_basic(1),              scheme_cpf_enhanced(1, 3),
      scheme_external_constrained(1, 3),
  };
  for (const ClockingScheme& s : schemes) {
    size_t compared = 0;
    size_t untestable = 0;
    for (const uint64_t seed : {101u, 202u, 303u}) {
      SCOPED_TRACE(s.name + " seed " + std::to_string(seed));
      Rng rng(seed);
      const Netlist nl = random_netlist(
          rng, RandomNetlistParams{
                   .pis = 5, .pos = 3, .flops = 5, .gates = 60, .domains = 1});
      const UnrolledModel um(nl, s, 0, kNoGate);
      Podem podem(um, 20000);
      const FaultList fl = FaultList::build(nl, s.model);
      for (size_t i = 0; i < fl.size(); ++i) {
        for (const auto& t : um.translate(fl.fault(i))) {
          const Podem::Outcome out = podem.run(t);
          if (out == Podem::Outcome::kAborted) continue;
          ++compared;
          untestable += out == Podem::Outcome::kUntestable;
          EXPECT_EQ(out == Podem::Outcome::kDetected,
                    test::sat_verdict(um, t) ==
                        sat::Verdict::kSat)
              << fault_to_string(nl, fl.fault(i));
        }
      }
    }
    EXPECT_GT(compared, 0u) << s.name;
    EXPECT_GT(untestable, 0u) << s.name;
  }
}

// ---------------------------------------------------------------------------
// Session-level check against the complete search, SAT probe budgeted.

gen::SocParams diff_soc(uint64_t seed) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.domains = 1;
  prm.domain_share.assign(1, 1.0);
  prm.flops = 16;
  prm.gates = 120;
  prm.pis = 6;
  prm.pos = 5;
  return prm;
}

/// The session the two tests below check: tight backtrack budget, so
/// plenty of faults abort and flow into a 2,000-conflict SAT probe.
SessionResult starved_sat_session(SessionConfig cfg) {
  cfg.engine({.fsim = {.shards = 1},
              .atpg_shards = 1,
              .sat_conflict_budget = 2000});
  AtpgOptions opts;
  opts.backtrack_limit = 25;
  cfg.atpg(opts);
  return Session(std::move(cfg)).run();
}

TEST(AtpgHeuristics, SessionSatClassificationsMatchSatVerdict) {
  // Neither the dominator early abort nor any rung of the abort ladder
  // may call a fault untestable that the unlimited-budget SAT decision
  // finds a test for.
  const gen::SocParams prm = diff_soc(31);
  const ClockingScheme schemes[] = {scheme_stuck_at_external(1),
                                    scheme_cpf_basic(1)};
  for (const ClockingScheme& scheme : schemes) {
    SCOPED_TRACE(scheme.name);
    SessionConfig cfg;
    cfg.design(gen::generate_soc(prm))
        .scan({.num_chains = 2})
        .scheme(scheme);
    const SessionResult r = starved_sat_session(std::move(cfg));
    EXPECT_GT(test::expect_untestable_verdicts_hold(r), 0u);
  }
}

TEST(AtpgHeuristics, CorpusSatClassificationsMatchSatVerdict) {
  // Same invariant on the committed corpus circuits: in particular the
  // dominator abort must never flip a fault the unlimited-budget SAT
  // decision proves testable.
  const std::pair<const char*, size_t> designs[] = {{"s27m.bench", 2},
                                                    {"s344c.bench", 1}};
  size_t checked = 0;
  for (const auto& [name, nd] : designs) {
    SCOPED_TRACE(name);
    const ClockingScheme schemes[] = {scheme_stuck_at_external(nd),
                                      scheme_cpf_basic(nd)};
    for (const ClockingScheme& scheme : schemes) {
      SCOPED_TRACE(scheme.name);
      SessionConfig cfg;
      cfg.design_file(std::string(OCC_CIRCUITS_DIR) + "/" + name)
          .scan({.num_chains = 2})
          .scheme(scheme);
      const SessionResult r = starved_sat_session(std::move(cfg));
      checked += test::expect_untestable_verdicts_hold(r);
    }
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Worker-side abort ladder: deterministic across repeats and shard counts.

std::string fingerprint(const SessionResult& r) {
  std::ostringstream os;
  for (const TestPattern& p : r.atpg.patterns) {
    os << p.ncp_index << '|';
    for (const auto& frame : p.pi_frames) {
      for (V3 v : frame) os << v3_char(v);
      os << '/';
    }
    os << '|';
    for (V3 v : p.load) os << v3_char(v);
    os << '\n';
  }
  os << "#faults:";
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    os << static_cast<int>(r.atpg.faults.status(i));
  }
  const Podem::Stats& ps = r.atpg.podem;
  os << "\n#podem:" << ps.runs << ',' << ps.decisions << ','
     << ps.backtracks << ',' << ps.implications << ','
     << ps.dominator_prunes;
  const SatStats& st = r.atpg.sat;
  os << "\n#ladder:" << r.atpg.escalations << ',' << r.atpg.sat_probe_wins
     << ',' << r.atpg.sat_refutations << ',' << st.solves << ','
     << st.conflicts << ',' << st.decisions << ',' << st.propagations << ','
     << st.learned_kept;
  os << "\n#fsim:" << r.atpg.fsim.gate_evals << ','
     << r.atpg.fsim.events_processed << ','
     << r.atpg.fsim.faults_simulated << ',' << r.atpg.fsim.newly_detected;
  return os.str();
}

TEST(AtpgHeuristics, WorkerLadderDeterministicAcrossRepeatsAndShards) {
  gen::SocParams prm;
  prm.seed = 77;
  prm.domains = 2;
  prm.domain_share.assign(2, 1.0);
  prm.flops = 48;
  prm.gates = 420;
  prm.pis = 10;
  prm.pos = 8;
  auto config = [&](size_t shards) {
    SessionConfig cfg;
    cfg.design(gen::generate_soc(prm))
        .scan({.num_chains = 4})
        .scheme(scheme_cpf_basic(2))
        .engine({.fsim = {.shards = 1}, .atpg_shards = shards});
    AtpgOptions opts;
    opts.backtrack_limit = 80;
    cfg.atpg(opts);
    return cfg;
  };
  const SessionResult base = Session(config(1)).run();
  EXPECT_GT(base.atpg.escalations, 0u)
      << "no abort reached the SAT probe: the determinism check is vacuous";
  const std::string fp = fingerprint(base);
  // Repeat determinism under the same configuration.
  EXPECT_EQ(fp, fingerprint(Session(config(1)).run()));
  // Shard-count independence of everything committed, including the
  // ladder and SAT counters of the probes the workers ran.
  for (const size_t shards : {2, 3, 8}) {
    EXPECT_EQ(fp, fingerprint(Session(config(shards)).run()))
        << "atpg_shards=" << shards;
  }
}

}  // namespace
}  // namespace occ
