// CDCL solver micro-fuzz: deterministic random small CNFs checked
// SAT/UNSAT against a brute-force enumerator, plus budget, determinism,
// reset-equals-fresh, learned-clause minimization and unit-propagation
// reference checks.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace occ {
namespace sat {
namespace {

// Does `assign` (bit i = variable i) satisfy the formula?
bool satisfies(const Cnf& cnf, uint32_t assign) {
  for (size_t i = 0; i < cnf.num_clauses(); ++i) {
    bool sat = false;
    for (Lit l : cnf.clause(i)) {
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

// Brute-force SAT decision over all 2^num_vars assignments.
bool brute_force_sat(const Cnf& cnf) {
  for (uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
    if (satisfies(cnf, a)) return true;
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
      // Duplicate and complementary literals on purpose: the solver's
      // normalization path is part of what the fuzz covers.
      clause.push_back(mk_lit(static_cast<Var>(rng.below(num_vars)),
                              rng.chance(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

TEST(SatSolver, MicroFuzzAgainstBruteForce) {
  Rng rng(0xf00df00du);
  size_t sat_seen = 0, unsat_seen = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const uint32_t nv = 1 + static_cast<uint32_t>(rng.below(12));
    // Clause/variable ratios around the hard region so both outcomes
    // appear in force.
    const size_t nc = 1 + rng.below(static_cast<uint64_t>(5 * nv));
    const Cnf cnf = random_cnf(rng, nv, nc);
    const bool expect = brute_force_sat(cnf);
    CdclSolver solver(cnf);
    const SatResult got = solver.solve();
    ASSERT_NE(got, SatResult::kUnknown) << "iter " << iter;
    EXPECT_EQ(got == SatResult::kSat, expect) << "iter " << iter;
    if (got == SatResult::kSat) {
      ++sat_seen;
      // The returned model must actually satisfy the formula.
      uint32_t a = 0;
      ASSERT_EQ(solver.model().size(), cnf.num_vars);
      for (Var v = 0; v < cnf.num_vars; ++v) {
        a |= static_cast<uint32_t>(solver.model()[v]) << v;
      }
      EXPECT_TRUE(satisfies(cnf, a)) << "iter " << iter;
    } else {
      ++unsat_seen;
    }
  }
  // The fuzz must exercise both verdicts heavily.
  EXPECT_GT(sat_seen, 100u);
  EXPECT_GT(unsat_seen, 100u);
}

TEST(SatSolver, DeterministicAcrossRepeats) {
  Rng rng(0xdecafu);
  for (int iter = 0; iter < 50; ++iter) {
    const uint32_t nv = 4 + static_cast<uint32_t>(rng.below(8));
    const Cnf cnf = random_cnf(rng, nv, 3 * nv);
    CdclSolver a(cnf), b(cnf);
    const SatResult ra = a.solve();
    const SatResult rb = b.solve();
    ASSERT_EQ(ra, rb);
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().propagations, b.stats().propagations);
    if (ra == SatResult::kSat) EXPECT_EQ(a.model(), b.model());
  }
}

// Pigeonhole: P pigeons into H holes, unsatisfiable for P > H and hard
// for resolution, so the solver must search.
Cnf pigeonhole(uint32_t P, uint32_t H) {
  Cnf cnf;
  cnf.num_vars = P * H;  // var p*H+h = pigeon p in hole h
  for (uint32_t p = 0; p < P; ++p) {
    std::vector<Lit> some;
    for (uint32_t h = 0; h < H; ++h) some.push_back(mk_lit(p * H + h));
    cnf.add_clause(some);
  }
  for (uint32_t h = 0; h < H; ++h) {
    for (uint32_t p1 = 0; p1 < P; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < P; ++p2) {
        cnf.add_binary(mk_lit(p1 * H + h, true), mk_lit(p2 * H + h, true));
      }
    }
  }
  return cnf;
}

TEST(SatSolver, ResetSolverMatchesFreshSolver) {
  // One solver reset across a stream of formulas of varying size must
  // answer every formula exactly as a freshly constructed solver does:
  // same verdict, model and counters.
  Rng rng(0x7e5e7u);
  CdclSolver reused;
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t nv = 2 + static_cast<uint32_t>(rng.below(30));
    const Cnf cnf = random_cnf(rng, nv, 1 + rng.below(5 * nv));
    CdclSolver fresh(cnf);
    reused.reset(cnf);
    const SatResult rf = fresh.solve();
    ASSERT_EQ(reused.solve(), rf) << "iter " << iter;
    if (rf == SatResult::kSat) {
      EXPECT_EQ(reused.model(), fresh.model());
    }
    EXPECT_EQ(reused.stats().conflicts, fresh.stats().conflicts);
    EXPECT_EQ(reused.stats().decisions, fresh.stats().decisions);
    EXPECT_EQ(reused.stats().propagations, fresh.stats().propagations);
    EXPECT_EQ(reused.stats().learned_literals,
              fresh.stats().learned_literals);
    EXPECT_EQ(reused.learned_kept(), fresh.learned_kept());
  }
}

TEST(SatSolver, MinimizationDropsImpliedTailLiterals) {
  // Pigeonhole 7/6 needs thousands of conflicts; first-UIP clauses over
  // its at-most-one binaries carry tail literals implied by the rest,
  // which local minimization drops without changing the verdict.
  CdclSolver s(pigeonhole(7, 6));
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
  EXPECT_GT(s.stats().minimized_literals, 0u);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  // A PHP-style unsatisfiable formula that needs search (pigeonhole
  // 5 pigeons / 4 holes), with a tiny budget.
  const Cnf cnf = pigeonhole(5, 4);
  CdclSolver full(cnf);
  EXPECT_EQ(full.solve(), SatResult::kUnsat);
  EXPECT_GT(full.stats().conflicts, 2u);

  SolverOptions opts;
  opts.conflict_budget = 2;
  CdclSolver capped(cnf, opts);
  EXPECT_EQ(capped.solve(), SatResult::kUnknown);
  EXPECT_LE(capped.stats().conflicts, 2u);
}

TEST(SatSolver, TrivialCases) {
  {
    Cnf cnf;  // empty formula
    cnf.num_vars = 3;
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kSat);
    EXPECT_EQ(s.model().size(), 3u);
  }
  {
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.add_clause({});  // empty clause
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kUnsat);
  }
  {
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.add_unit(mk_lit(0));
    cnf.add_unit(mk_lit(0, true));
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kUnsat);
  }
  {
    Cnf cnf;  // tautological clause normalizes away
    cnf.num_vars = 2;
    cnf.add_binary(mk_lit(0), mk_lit(0, true));
    cnf.add_unit(mk_lit(1, true));
    CdclSolver s(cnf);
    EXPECT_EQ(s.solve(), SatResult::kSat);
    EXPECT_EQ(s.model()[1], 0);
  }
}

TEST(SatSolver, UnitPropagateReference) {
  // Chain of implications: a -> b -> c, plus c -> !d.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_binary(mk_lit(0, true), mk_lit(1));
  cnf.add_binary(mk_lit(1, true), mk_lit(2));
  cnf.add_binary(mk_lit(2, true), mk_lit(3, true));
  bool conflict = false;
  const auto val = unit_propagate(cnf, {mk_lit(0)}, &conflict);
  EXPECT_FALSE(conflict);
  EXPECT_EQ(val[0], 1);
  EXPECT_EQ(val[1], 1);
  EXPECT_EQ(val[2], 1);
  EXPECT_EQ(val[3], 0);

  // Contradictory assumptions surface as a conflict.
  conflict = false;
  (void)unit_propagate(cnf, {mk_lit(0), mk_lit(3)}, &conflict);
  EXPECT_TRUE(conflict);

  // No assumptions, no units: nothing propagates.
  conflict = false;
  const auto none = unit_propagate(cnf, {}, &conflict);
  EXPECT_FALSE(conflict);
  for (int8_t v : none) EXPECT_EQ(v, -1);
}

TEST(SatSolver, UnitPropagateAgreesWithCdclOnForcedFormulas) {
  // On formulas whose satisfying assignment is forced from unit clauses,
  // the standalone reference and the CDCL solver must agree exactly.
  Rng rng(0xbeefu);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t nv = 2 + static_cast<uint32_t>(rng.below(10));
    Cnf cnf;
    cnf.num_vars = nv;
    // Random forced chain seeded by one unit: each variable v is
    // implied (in both polarities of its parent) once the parent is
    // assigned, so plain unit propagation decides everything.
    cnf.add_unit(mk_lit(0, rng.chance(0.5)));
    for (Var v = 1; v < nv; ++v) {
      const Var prev = static_cast<Var>(rng.below(v));
      const Lit head = mk_lit(v, rng.chance(0.5));
      cnf.add_binary(mk_lit(prev, true), head);
      cnf.add_binary(mk_lit(prev, false), head);
    }
    bool conflict = false;
    const auto val = unit_propagate(cnf, {}, &conflict);
    if (conflict) continue;
    CdclSolver s(cnf);
    if (s.solve() != SatResult::kSat) continue;
    for (Var v = 0; v < nv; ++v) {
      if (val[v] >= 0) EXPECT_EQ(s.model()[v], val[v]) << "iter " << iter;
    }
  }
}

TEST(SatCnf, DimacsWriter) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_binary(mk_lit(0), mk_lit(1, true));
  cnf.add_unit(mk_lit(2));
  std::ostringstream os;
  cnf.write_dimacs(os, {"hello"});
  EXPECT_EQ(os.str(), "c hello\np cnf 3 2\n1 -2 0\n3 0\n");
  EXPECT_EQ(cnf.literal_count(), 3u);
}

}  // namespace
}  // namespace sat
}  // namespace occ
