// Tests: the SAT probe (sat/probe.h) and the abort ladder that runs it
// on the deterministic stage's workers. The probe's cubes leave every
// model variable outside the instance's support X, a reused probe
// scratch answers exactly as a fresh one, and the ladder is
// deterministic across repeats and shard counts with untestable
// verdicts that agree with the unlimited-budget SAT verdict. The cheap
// rung's backtrack budget decides which rung settles a fault, never
// its verdict.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "atpg/parallel.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "gen/circuits.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "sat/probe.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

/// The support of one instance, computed independently of the lowering
/// by fixpoints over the comb model's topological order: the live cone
/// (cone gates reaching an observation inside the cone) plus the
/// transitive fanin of it and of the launch-constraint gates.
std::vector<uint8_t> support_of(const UnrolledModel& um,
                                const UnrolledFault& uf) {
  const Netlist& nl = um.comb();
  const size_t n = nl.size();
  std::vector<uint8_t> site(n, 0), cone(n, 0), obs(n, 0), live(n, 0),
      sup(n, 0);
  for (const auto& [g, pin] : uf.sites) site[g] = 1;
  for (GateId o : um.observations()) obs[o] = 1;
  const auto& topo = nl.topo_order();
  for (GateId g : topo) {
    cone[g] = site[g];
    for (GateId f : nl.gate(g).fanin) cone[g] = cone[g] || cone[f];
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    for (GateId f : nl.gate(g).fanout) live[g] = live[g] || live[f];
    live[g] = cone[g] && (obs[g] || live[g]);
  }
  for (const auto& [g, val] : uf.constraints) sup[g] = 1;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    sup[g] = sup[g] || live[g];
    for (GateId f : nl.gate(g).fanout) sup[g] = sup[g] || sup[f];
  }
  return sup;
}

TEST(SatProbe, CubesLeaveEveryVariableOutsideTheSupportX) {
  // The cube takes the solver's value on every model variable inside
  // the instance's support and X on every other one; each cube still
  // detects when simulated with those X bits left X.
  Rng gen_rng(0x5a9907u);
  size_t outside = 0, sat_seen = 0;
  for (const ClockingScheme& s :
       {scheme_stuck_at_external(2), scheme_cpf_basic(2),
        scheme_cpf_enhanced(2, 3)}) {
    SCOPED_TRACE(s.name);
    const Netlist nl = test::random_netlist(
        gen_rng, test::RandomNetlistParams{.flops = 10, .gates = 80});
    const FaultList fl = FaultList::build(nl, s.model);
    for (uint32_t nc = 0; nc < s.procedures.size(); ++nc) {
      const UnrolledModel um(nl, s, nc, kNoGate);
      for (size_t fi = 0; fi < fl.size(); fi += 3) {
        for (const UnrolledFault& uf : um.translate(fl.fault(fi))) {
          const ProbeResult r = probe(um, uf, 0);
          if (r.verdict != Verdict::kSat) continue;
          ++sat_seen;
          const std::vector<uint8_t> sup = support_of(um, uf);
          ASSERT_EQ(r.cube.size(), um.var_gates().size());
          for (size_t v = 0; v < r.cube.size(); ++v) {
            if (sup[um.var_gates()[v]]) {
              EXPECT_NE(r.cube[v], V3::kX) << "fault " << fi << " var " << v;
            } else {
              ++outside;
              EXPECT_EQ(r.cube[v], V3::kX) << "fault " << fi << " var " << v;
            }
          }
          EXPECT_TRUE(test::ref_detects(nl, s.procedures[nc],
                                        s.scan_en_frozen, kNoGate,
                                        cube_to_pattern(um, r.cube, nl, nc),
                                        fl.fault(fi)))
              << "fault " << fi << " ncp " << nc;
        }
      }
    }
  }
  EXPECT_GT(sat_seen, 20u);
  EXPECT_GT(outside, 0u) << "no instance left a variable outside its support";
}

void expect_same(const ProbeResult& a, const ProbeResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.cube, b.cube);
  EXPECT_EQ(a.learned_kept, b.learned_kept);
  const SolverStats &x = a.work, &y = b.work;
  EXPECT_EQ(x.conflicts, y.conflicts);
  EXPECT_EQ(x.decisions, y.decisions);
  EXPECT_EQ(x.propagations, y.propagations);
  EXPECT_EQ(x.restarts, y.restarts);
  EXPECT_EQ(x.learned_clauses, y.learned_clauses);
  EXPECT_EQ(x.learned_literals, y.learned_literals);
  EXPECT_EQ(x.minimized_literals, y.minimized_literals);
  EXPECT_EQ(x.solves, y.solves);
  EXPECT_EQ(x.db_reductions, y.db_reductions);
  EXPECT_EQ(x.learned_removed, y.learned_removed);
}

TEST(SatProbe, ReusedScratchMatchesFreshScratch) {
  // One scratch carried across instances of two models of different
  // size, at a budget that leaves some probes inconclusive, must give
  // every instance the verdict, cube and counters of a fresh scratch.
  Netlist miter = gen::make_xor_miter(24, /*skewed=*/true);
  insert_scan(miter, {.num_chains = 1});
  Rng gen_rng(0x5c7a7c4u);
  const Netlist random = test::random_netlist(gen_rng);
  const ClockingScheme s = scheme_stuck_at_external(1);
  const UnrolledModel models[] = {UnrolledModel(miter, s, 0, kNoGate),
                                  UnrolledModel(random, s, 0, kNoGate)};
  const FaultList lists[] = {FaultList::build(miter, s.model),
                             FaultList::build(random, s.model)};
  ProbeScratch scratch;
  size_t seen[4] = {0, 0, 0, 0};  // per Verdict
  for (size_t fi = 0; fi < 60; ++fi) {
    for (size_t m = 0; m < 2; ++m) {
      if (fi >= lists[m].size()) continue;
      for (const UnrolledFault& uf : models[m].translate(lists[m].fault(fi))) {
        for (const uint64_t budget : {uint64_t{0}, uint64_t{40}}) {
          SCOPED_TRACE("model " + std::to_string(m) + " fault " +
                       std::to_string(fi) + " budget " +
                       std::to_string(budget));
          const ProbeResult reused = probe(models[m], uf, budget, &scratch);
          expect_same(reused, probe(models[m], uf, budget));
          ++seen[static_cast<size_t>(reused.verdict)];
        }
      }
    }
  }
  EXPECT_GT(seen[static_cast<size_t>(Verdict::kSat)], 0u);
  EXPECT_GT(seen[static_cast<size_t>(Verdict::kUnsat)], 0u);
  EXPECT_GT(seen[static_cast<size_t>(Verdict::kUnknown)], 0u);
}

// The three ladder tests below keep the SatIncremental suite name they
// had when the probe ran on a shared incremental solver, so their test
// ids stay stable.

std::string det_fingerprint(const SessionResult& r) {
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
  os << "|esc:" << r.atpg.escalations << ',' << r.atpg.sat_probe_wins << ','
     << r.atpg.sat_refutations;
  const SatStats& st = r.atpg.sat;
  os << "|sat:" << st.solves << ',' << st.conflicts << ',' << st.decisions
     << ',' << st.propagations << ',' << st.learned_kept;
  return os.str();
}

TEST(SatIncremental, EscalationDeterministicAcrossShards) {
  Rng rng(7);
  test::RandomNetlistParams p;
  p.pis = 8;
  p.pos = 6;
  p.flops = 10;
  p.gates = 120;
  const Netlist nl = test::random_netlist(rng, p);
  AtpgOptions opts;
  opts.backtrack_limit = 1;  // starved: escalation does the real work
  auto run = [&](size_t atpg_shards) {
    SessionConfig cfg;
    cfg.design(nl)
        .scheme(scheme_cpf_basic(2))
        .atpg(opts)
        .engine({.atpg_shards = atpg_shards});
    return Session(std::move(cfg)).run();
  };
  const SessionResult one = run(1);
  EXPECT_GT(one.atpg.escalations, 0u) << "workload never escalated";
  const std::string a = det_fingerprint(one);
  EXPECT_EQ(a, det_fingerprint(run(1)));  // repeat
  EXPECT_EQ(a, det_fingerprint(run(2)));
  EXPECT_EQ(a, det_fingerprint(run(3)));
  EXPECT_EQ(a, det_fingerprint(run(8)));
}

TEST(SatIncremental, LadderClassificationsMatchSatVerdict) {
  // The SAT probe refines abort outcomes but may never contradict the
  // complete search: every fault the abort ladder calls untestable or
  // proven-untestable has no test under the capture model.
  for (uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    test::RandomNetlistParams p;
    p.pis = 8;
    p.pos = 6;
    p.flops = 8;
    p.gates = 100;
    const Netlist nl = test::random_netlist(rng, p);
    AtpgOptions opts;
    opts.backtrack_limit = 4;
    SessionConfig cfg;
    cfg.design(nl).scheme(scheme_stuck_at_external(2)).atpg(opts);
    const SessionResult r = Session(std::move(cfg)).run();
    EXPECT_GT(r.atpg.escalations, 0u) << "workload never escalated";
    EXPECT_GT(test::expect_untestable_verdicts_hold(r), 0u);
  }
}

TEST(SatIncremental, CorpusClassificationsAgreeAcrossModes) {
  // circuits/ corpus: the abort ladder at a 2,000-conflict probe budget
  // and at the default one answers the same satisfiability question as
  // the complete search -- the budgets may leave different faults
  // aborted, but never call a testable fault untestable.
  const std::string path =
      std::string(OCC_CIRCUITS_DIR) + "/s344c.bench";
  const Netlist nl = read_bench_file(path);
  AtpgOptions starved;
  starved.backtrack_limit = 10;
  for (const uint64_t budget :
       {uint64_t{2000}, EngineOptions{}.sat_conflict_budget}) {
    SCOPED_TRACE(budget);
    SessionConfig cfg;
    cfg.design(nl)
        .scheme(scheme_stuck_at_external(1))
        .atpg(starved)
        .engine({.sat_conflict_budget = budget});
    const SessionResult r = Session(std::move(cfg)).run();
    EXPECT_GT(test::expect_untestable_verdicts_hold(r), 0u);
  }
}

/// Per fault: 'D' detected, 'U' untestable or proven untestable, else
/// the status number (none is expected after a complete run).
std::string verdict_split(const FaultList& fl) {
  std::string out(fl.size(), '?');
  for (size_t i = 0; i < fl.size(); ++i) {
    const FaultStatus st = fl.status(i);
    out[i] = st == FaultStatus::kDetected ? 'D'
             : (st == FaultStatus::kUntestable ||
                st == FaultStatus::kProvenUntestable)
                 ? 'U'
                 : static_cast<char>('0' + static_cast<int>(st));
  }
  return out;
}

/// Runs the session `config` builds at the default cheap-rung budget
/// and at 300 backtracks, and expects the same verdicts from both;
/// returns the escalations at the default.
size_t expect_same_verdicts_at_300(
    const std::function<SessionConfig()>& config) {
  const SessionResult def = Session(config()).run();
  AtpgOptions deep;
  deep.backtrack_limit = 300;
  SessionConfig cfg = config();
  cfg.atpg(deep);
  const SessionResult at300 = Session(std::move(cfg)).run();
  const FaultList &a = def.atpg.faults, &b = at300.atpg.faults;
  EXPECT_EQ(a.count(FaultStatus::kAborted), 0u);
  EXPECT_EQ(b.count(FaultStatus::kAborted), 0u);
  EXPECT_EQ(def.test_coverage(), at300.test_coverage());
  EXPECT_EQ(verdict_split(a), verdict_split(b));
  EXPECT_GE(def.atpg.escalations, at300.atpg.escalations);
  return def.atpg.escalations;
}

TEST(AbortLadder, CheapRungBudgetChangesWhoDecidesNotWhat) {
  // The cheap rung's backtrack budget only moves instances between
  // PODEM and the SAT probe: at the default budget and at 300 every
  // fault gets the same verdict (detected vs untestable), nothing is
  // left aborted, and the smaller budget hands at least as many aborts
  // to the probe.
  gen::SocParams prm;
  prm.seed = 5;
  prm.domains = 2;
  prm.domain_share.assign(2, 1.0);
  prm.flops = 36;
  prm.gates = 300;
  prm.pis = 10;
  prm.pos = 8;
  const Netlist soc = gen::generate_soc(prm);
  size_t escalations = 0;
  for (const ClockingScheme& s :
       {scheme_stuck_at_external(2), scheme_external_full(2, 3),
        scheme_cpf_basic(2), scheme_cpf_enhanced(2, 3),
        scheme_external_constrained(2, 3)}) {
    SCOPED_TRACE(s.name);
    escalations += expect_same_verdicts_at_300([&] {
      SessionConfig cfg;
      cfg.design(soc).scan({.num_chains = 4}).scheme(s);
      return cfg;
    });
  }
  const std::pair<const char*, ClockingScheme> corpus[] = {
      {"s27m.bench", scheme_cpf_enhanced(2, 3)},
      {"s344c.bench", scheme_cpf_basic(1)}};
  for (const auto& [name, s] : corpus) {
    SCOPED_TRACE(name);
    escalations += expect_same_verdicts_at_300([&] {
      SessionConfig cfg;
      cfg.design_file(std::string(OCC_CIRCUITS_DIR) + "/" + name)
          .scan({.num_chains = 2})
          .scheme(s);
      return cfg;
    });
  }
  EXPECT_GT(escalations, 0u) << "no abort reached the probe: vacuous";
}

}  // namespace
}  // namespace sat
}  // namespace occ
