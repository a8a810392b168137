#include "sat/probe.h"

#include <optional>

namespace occ {
namespace sat {

ProbeResult probe(const UnrolledModel& um, const UnrolledFault& uf,
                  uint64_t conflict_budget, ProbeScratch* scratch) {
  std::optional<ProbeScratch> own;
  if (scratch == nullptr) scratch = &own.emplace();
  ProbeResult out;
  CnfLowering& low = scratch->lowering;
  if (!low.lower_fault(um, uf)) return out;  // kNoObservation
  CdclSolver& solver = scratch->solver;
  solver.reset(low.cnf(), SolverOptions{.conflict_budget = conflict_budget});
  const SatResult r = solver.solve();
  out.work = solver.stats();
  out.learned_kept = solver.learned_kept();
  switch (r) {
    case SatResult::kSat:
      out.verdict = Verdict::kSat;
      out.cube = low.extract_cube(solver.model());
      break;
    case SatResult::kUnsat:
      out.verdict = Verdict::kUnsat;
      break;
    case SatResult::kUnknown:
      out.verdict = Verdict::kUnknown;
      break;
  }
  return out;
}

}  // namespace sat
}  // namespace occ
