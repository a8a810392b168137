// The SAT probe: one fault instance, one formula, one solve.
//
// probe() lowers the instance's miter over its support (sat/lower.h:
// the live fault cone and the good machine over the transitive fanin of
// that cone and of the launch-constraint gates) into a fresh formula and
// solves it once under a conflict budget. Nothing carries over from one
// probe to the next, so a probe is a pure function of (model, instance,
// budget): the deterministic stage runs probes on any worker thread in
// any order and still commits bit-identical results, and `occ
// sat-export` dumps exactly the formula a probe solves.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/lower.h"
#include "sat/solver.h"

namespace occ {
namespace sat {

enum class Verdict : uint8_t {
  kSat,            ///< the cube detects the instance
  kUnsat,          ///< instance proven undetectable
  kUnknown,        ///< conflict budget exhausted
  kNoObservation,  ///< no observation point in the fault cone
};

/// Outcome of one probe.
struct ProbeResult {
  Verdict verdict = Verdict::kNoObservation;
  /// On kSat: one V3 per model variable (model.var_gates() order) --
  /// the solver's value on every variable inside the instance's
  /// support, X on every other one.
  std::vector<V3> cube;
  /// The probe's solver work (all zero on kNoObservation: nothing was
  /// solved).
  SolverStats work;
  /// Learned clauses the solver held when the probe ended.
  uint64_t learned_kept = 0;
};

/// Reusable buffers of probe(): the lowering scratch (which owns the
/// formula) and the solver. Reusing one scratch across probes only
/// saves allocations; every verdict, cube and counter equals a fresh
/// scratch's.
struct ProbeScratch {
  CnfLowering lowering;
  CdclSolver solver;
};

/// Decides one fault instance of `um` under `conflict_budget` conflicts
/// (0 = unlimited), in `scratch` (null = a scratch of its own).
ProbeResult probe(const UnrolledModel& um, const UnrolledFault& uf,
                  uint64_t conflict_budget, ProbeScratch* scratch = nullptr);

}  // namespace sat
}  // namespace occ
