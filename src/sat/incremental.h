// IncrementalMiter: one persistent solver per (capture procedure,
// UnrolledModel), shared by every fault miter lowered against it.
//
// The good machine is lowered once at construction. Each fault instance
// is lowered once, gated behind a fresh activation literal
// (CnfLowering::add_fault_gated), decided once by solving under the
// assumption {activation}, and then retired by the permanent unit
// clause (NOT activation) whatever the verdict. Everything the solver
// learns while deciding one fault (clauses over good-machine rails,
// saved phases, VSIDS activities) carries over to every later fault in
// the same model. Retiring is sound for all later solves because a
// retired activation is never assumed again, and it lets the watch
// lists go dead on the retired cone.
//
// Determinism: the miter inherits the solver's determinism contract --
// a decide() sequence is a pure function of the (instance, budget) call
// sequence. Because learned clauses persist, *individual* verdict costs
// depend on call order; callers that need order-independent results
// (the deterministic stage's abort ladder) must therefore issue decide() calls in
// canonical fault order from a single thread.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/lower.h"
#include "sat/solver.h"

namespace occ {
namespace sat {

class IncrementalMiter {
 public:
  /// Lowers the good machine of `um` and seeds the persistent solver.
  explicit IncrementalMiter(const UnrolledModel& um, SolverOptions opts = {});

  /// Seeds the persistent solver from a prebuilt good-machine lowering
  /// (copied; `base` must carry no per-fault extensions). The clause
  /// stream fed to the solver is byte-identical to the constructor
  /// above, so every later decide() verdict and solver counter matches
  /// bit for bit -- only the good-machine lowering traversal is skipped
  /// (the path occ::CompiledDesign reuses across runs).
  explicit IncrementalMiter(const CnfLowering& base, SolverOptions opts = {});

  enum class Verdict : uint8_t {
    kSat,            ///< *cube holds a detecting PODEM cube
    kUnsat,          ///< instance proven undetectable
    kUnknown,        ///< conflict budget exhausted
    kNoObservation,  ///< no observation point in the fault cone
  };

  /// Lowers, decides and retires one fault instance under
  /// `conflict_budget` conflicts (0 = unlimited). Every call lowers a
  /// new miter, so each instance is asked once. On kSat, *cube receives
  /// the detecting cube (one V3 per model variable).
  Verdict decide(const UnrolledFault& uf, uint64_t conflict_budget,
                 std::vector<V3>* cube);

  const UnrolledModel& model() const { return lowering_.model(); }
  const CdclSolver& solver() const { return solver_; }

 private:
  /// Feeds variables/clauses the lowering appended since the last sync
  /// into the solver.
  void sync();

  CnfLowering lowering_;
  CdclSolver solver_;
  uint32_t next_var_ = 0;
  size_t next_clause_ = 0;
};

}  // namespace sat
}  // namespace occ
