// Multi-shot solver and incremental-miter tests: micro-fuzz of
// solve(assumptions) and add_clause-between-solves against fresh
// one-shot solvers and a brute-force enumerator, gated fault lowering
// vs the legacy per-fault lowering, and the deterministic stage's abort
// ladder: determinism across repeats and shards, and untestable verdicts
// that agree with the unlimited-budget SAT verdict.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "netlist/bench_io.h"
#include "sat/cnf.h"
#include "sat/incremental.h"
#include "sat/lower.h"
#include "sat/solver.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

// Does `assign` (bit i = variable i) satisfy the formula?
bool satisfies(const Cnf& cnf, uint32_t assign) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (Lit l : clause) {
      const bool v = (assign >> lit_var(l)) & 1u;
      if (v != lit_sign(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

// Brute-force SAT decision with the assumptions folded in as units.
bool brute_force_sat(const Cnf& cnf, const std::vector<Lit>& assumptions) {
  for (uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
    bool ok = true;
    for (Lit l : assumptions) {
      if (((a >> lit_var(l)) & 1u) == lit_sign(l)) {
        ok = false;
        break;
      }
    }
    if (ok && satisfies(cnf, a)) return true;
  }
  return false;
}

Cnf random_cnf(Rng& rng, uint32_t num_vars, size_t num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (size_t c = 0; c < num_clauses; ++c) {
    const size_t len = 1 + rng.below(4);
    std::vector<Lit> clause;
    for (size_t i = 0; i < len; ++i) {
      clause.push_back(mk_lit(static_cast<Var>(rng.below(num_vars)),
                              rng.chance(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

std::vector<Lit> random_assumptions(Rng& rng, uint32_t num_vars) {
  // May repeat or contradict itself on purpose; both are legal inputs.
  std::vector<Lit> a;
  const size_t n = rng.below(4);
  for (size_t i = 0; i < n; ++i) {
    a.push_back(mk_lit(static_cast<Var>(rng.below(num_vars)),
                       rng.chance(0.5)));
  }
  return a;
}

// Reference decision for solve(assumptions): a fresh one-shot solver
// over the formula with the assumptions added as unit clauses.
SatResult one_shot(const Cnf& cnf, const std::vector<Lit>& assumptions) {
  Cnf with = cnf;
  for (Lit l : assumptions) with.add_unit(l);
  CdclSolver fresh(with);
  return fresh.solve();
}

TEST(SatIncremental, AssumptionFuzzMatchesOneShotAndBruteForce) {
  Rng rng(0x1c0ffeeu);
  size_t sat_seen = 0, unsat_seen = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t nv = 2 + static_cast<uint32_t>(rng.below(10));
    const Cnf cnf = random_cnf(rng, nv, 1 + rng.below(4 * nv));
    CdclSolver inc(cnf);
    // Several assumption solves against ONE solver: later solves run
    // with whatever the earlier ones learned.
    for (int shot = 0; shot < 4; ++shot) {
      const std::vector<Lit> assumptions = random_assumptions(rng, nv);
      const SatResult got = inc.solve(assumptions);
      ASSERT_NE(got, SatResult::kUnknown) << "iter " << iter;
      const bool expect = brute_force_sat(cnf, assumptions);
      EXPECT_EQ(got == SatResult::kSat, expect)
          << "iter " << iter << " shot " << shot;
      EXPECT_EQ(one_shot(cnf, assumptions) == SatResult::kSat, expect)
          << "iter " << iter << " shot " << shot;
      if (got == SatResult::kSat) {
        ++sat_seen;
        // The model must satisfy formula AND assumptions.
        uint32_t a = 0;
        ASSERT_EQ(inc.model().size(), cnf.num_vars);
        for (Var v = 0; v < cnf.num_vars; ++v) {
          a |= static_cast<uint32_t>(inc.model()[v]) << v;
        }
        EXPECT_TRUE(satisfies(cnf, a)) << "iter " << iter;
        for (Lit l : assumptions) {
          EXPECT_NE(((a >> lit_var(l)) & 1u) == 1u, lit_sign(l))
              << "iter " << iter << ": model violates assumption";
        }
      } else {
        ++unsat_seen;
      }
    }
  }
  EXPECT_GT(sat_seen, 100u);
  EXPECT_GT(unsat_seen, 100u);
}

TEST(SatIncremental, AddClauseBetweenSolvesFuzz) {
  Rng rng(0xadded5eedu);
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t nv = 2 + static_cast<uint32_t>(rng.below(8));
    Cnf acc;
    acc.num_vars = nv;
    CdclSolver inc(acc);
    for (int round = 0; round < 5; ++round) {
      // Grow the formula under the solver's feet.
      const size_t burst = 1 + rng.below(3);
      for (size_t c = 0; c < burst; ++c) {
        const size_t len = 1 + rng.below(3);
        std::vector<Lit> clause;
        for (size_t i = 0; i < len; ++i) {
          clause.push_back(mk_lit(static_cast<Var>(rng.below(nv)),
                                  rng.chance(0.5)));
        }
        acc.add_clause(clause);
        inc.add_clause(std::move(clause));
      }
      const std::vector<Lit> assumptions = random_assumptions(rng, nv);
      const SatResult got = inc.solve(assumptions);
      ASSERT_NE(got, SatResult::kUnknown);
      const bool expect = brute_force_sat(acc, assumptions);
      EXPECT_EQ(got == SatResult::kSat, expect)
          << "iter " << iter << " round " << round;
      if (got == SatResult::kSat) {
        uint32_t a = 0;
        for (Var v = 0; v < nv; ++v) {
          a |= static_cast<uint32_t>(inc.model()[v]) << v;
        }
        EXPECT_TRUE(satisfies(acc, a));
      }
    }
  }
}

TEST(SatIncremental, MultiShotDeterministicAcrossRepeats) {
  Rng seq_rng(0x5eedu);
  for (int iter = 0; iter < 30; ++iter) {
    const uint32_t nv = 4 + static_cast<uint32_t>(seq_rng.below(8));
    const Cnf cnf = random_cnf(seq_rng, nv, 3 * nv);
    // The same interleaved add_clause/solve sequence on two solvers.
    std::vector<std::vector<Lit>> shots;
    for (int s = 0; s < 5; ++s) {
      shots.push_back(random_assumptions(seq_rng, nv));
    }
    CdclSolver a(cnf), b(cnf);
    for (const auto& assumptions : shots) {
      const SatResult ra = a.solve(assumptions);
      const SatResult rb = b.solve(assumptions);
      ASSERT_EQ(ra, rb);
      if (ra == SatResult::kSat) EXPECT_EQ(a.model(), b.model());
    }
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().propagations, b.stats().propagations);
    EXPECT_EQ(a.learned_kept(), b.learned_kept());
  }
}

TEST(SatIncremental, GatedFaultsMatchLegacyLowering) {
  // Every fault instance decided through the shared-solver miter must
  // agree with a from-scratch lowering + one-shot solve of that single
  // instance, and nothing may ever be lowered twice.
  Rng rng(0x90a7edu);
  test::RandomNetlistParams p;
  p.pis = 6;
  p.pos = 4;
  p.flops = 6;
  p.gates = 60;
  const Netlist nl = test::random_netlist(rng, p);
  const ClockingScheme s = scheme_stuck_at_external(1);
  UnrolledModel um(nl, s, 0, kNoGate);
  IncrementalMiter miter(um);
  FaultList fl = FaultList::build(nl, s.model);
  size_t checked = 0;
  for (size_t fi = 0; fi < fl.size() && checked < 60; ++fi) {
    const auto ufs = um.translate(fl.fault(fi));
    for (size_t ti = 0; ti < ufs.size(); ++ti, ++checked) {
      std::vector<V3> cube;
      const auto v = miter.decide(ufs[ti], 0, &cube);
      CnfLowering fresh(um);
      if (!fresh.add_fault(ufs[ti])) {
        EXPECT_EQ(v, IncrementalMiter::Verdict::kNoObservation);
        continue;
      }
      CdclSolver ref(fresh.cnf());
      const SatResult rv = ref.solve();
      ASSERT_NE(rv, SatResult::kUnknown);
      EXPECT_EQ(v == IncrementalMiter::Verdict::kSat,
                rv == SatResult::kSat)
          << "fault " << fi << " instance " << ti;
    }
  }
  EXPECT_GT(checked, 20u);
}

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
  os << "|esc:" << r.atpg.escalations << ',' << r.atpg.sat_probe_wins;
  const SatStats& st = r.atpg.sat;
  os << "|sat:" << st.solves << ',' << st.conflicts << ','
     << st.assumption_solves << ',' << st.learned_kept;
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

}  // namespace
}  // namespace sat
}  // namespace occ
