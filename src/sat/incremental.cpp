#include "sat/incremental.h"

#include "util/check.h"

namespace occ {
namespace sat {

IncrementalMiter::IncrementalMiter(const UnrolledModel& um, SolverOptions opts)
    : lowering_(um), solver_(lowering_.cnf(), opts) {
  next_var_ = lowering_.cnf().num_vars;
  next_clause_ = lowering_.cnf().clauses.size();
}

IncrementalMiter::IncrementalMiter(const CnfLowering& base, SolverOptions opts)
    : lowering_(base), solver_(lowering_.cnf(), opts) {
  next_var_ = lowering_.cnf().num_vars;
  next_clause_ = lowering_.cnf().clauses.size();
}

void IncrementalMiter::sync() {
  const Cnf& cnf = lowering_.cnf();
  while (next_var_ < cnf.num_vars) {
    solver_.new_var();
    ++next_var_;
  }
  while (next_clause_ < cnf.clauses.size()) {
    solver_.add_clause(cnf.clauses[next_clause_]);
    ++next_clause_;
  }
}

IncrementalMiter::Verdict IncrementalMiter::decide(const UnrolledFault& uf,
                                                   uint64_t conflict_budget,
                                                   std::vector<V3>* cube) {
  Lit activation = kLitUndef;
  if (!lowering_.add_fault_gated(uf, &activation)) {
    return Verdict::kNoObservation;
  }
  sync();
  solver_.set_conflict_budget(conflict_budget);
  const SatResult r = solver_.solve({activation});
  if (r == SatResult::kSat && cube != nullptr) {
    *cube = lowering_.extract_cube(solver_.model());
  }
  // UNSAT under {activation}: with every earlier activation retired the
  // other instances' clauses are all satisfied, so this can only mean
  // the instance itself is undetectable (a level-0 UNSAT of the shared
  // formula is impossible -- the good machine alone is satisfiable and
  // every per-fault clause is guarded).
  OCC_CHECK(r != SatResult::kUnsat || solver_.ok(),
            "sat: shared incremental formula went UNSAT");
  solver_.add_clause({lit_neg(activation)});
  if (r == SatResult::kSat) return Verdict::kSat;
  return r == SatResult::kUnsat ? Verdict::kUnsat : Verdict::kUnknown;
}

}  // namespace sat
}  // namespace occ
