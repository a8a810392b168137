// In-tree CDCL SAT solver for the ATPG backend.
//
// Classic conflict-driven clause learning in the MiniSat mold: two
// watched literals per clause, first-UIP conflict analysis, VSIDS-style
// activity-ordered decisions with phase saving, Luby restarts and a
// per-solve conflict budget (exhaustion returns kUnknown, which the
// ATPG stage maps to "still aborted").
//
// The solver is multi-shot: solve(assumptions) may be called any number
// of times, with add_clause() extending the formula between solves.
// Assumptions are enqueued as decisions on dedicated leading decision
// levels (one per assumption, MiniSat-style), so first-UIP analysis
// needs no special casing -- a conflict that ultimately falsifies an
// assumption surfaces as kUnsat *under these assumptions* without
// poisoning the formula, while a conflict at decision level 0 marks the
// formula itself unsatisfiable for every later solve. Learned clauses,
// saved phases and VSIDS activities persist across solves; the learned
// database is bounded by a deterministic activity-based reduction
// (binaries are kept forever).
//
// Determinism contract: a solve sequence is a pure function of the
// (clause, solve) call sequence and the options. Decisions break
// activity ties toward the smaller variable index, clause and watch
// traversal follow insertion order, database reduction orders by
// (activity, insertion index), and no wall-clock, randomization or
// address-order input exists -- so repeated runs (and runs on different
// machines) produce identical models, conflict counts and learned
// clauses.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/cnf.h"

namespace occ {
namespace sat {

/// Outcome of one solve.
enum class SatResult : uint8_t {
  kSat,     ///< model() holds a satisfying assignment
  kUnsat,   ///< unsatisfiable (under the given assumptions, if any)
  kUnknown  ///< conflict budget exhausted before a verdict
};

struct SolverOptions {
  /// Per-solve conflict budget; 0 = unlimited. On exhaustion solve()
  /// returns kUnknown (the formula and learned state stay usable).
  uint64_t conflict_budget = 0;
  /// VSIDS activity decay per conflict (activity increment grows by
  /// 1/decay).
  double var_decay = 0.95;
  /// Learned-clause activity decay per conflict.
  double clause_decay = 0.999;
  /// Luby restart unit, in conflicts.
  uint32_t restart_base = 128;
  /// Learned non-binary clauses kept before an activity-based database
  /// reduction halves them (the ceiling then grows 1.5x so reductions
  /// stay amortized). 0 = never reduce.
  size_t learned_limit = 8192;
};

/// Deterministic work counters of one solver instance (cumulative over
/// all solves of the instance).
struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t learned_literals = 0;
  uint64_t solves = 0;             ///< solve() calls
  uint64_t assumption_solves = 0;  ///< solves with a non-empty assumption set
  /// Propagations whose reason is a learned clause from an *earlier*
  /// solve -- the cross-solve clause-sharing payoff.
  uint64_t learned_reused = 0;
  uint64_t db_reductions = 0;   ///< learned-database reduction passes
  uint64_t learned_removed = 0; ///< learned clauses dropped by reductions
};

/// One multi-shot CDCL solver over a growing formula. Construction
/// copies the clauses; solve() may be called repeatedly, with
/// new_var()/add_clause() extending the formula between solves.
class CdclSolver {
 public:
  explicit CdclSolver(const Cnf& cnf, SolverOptions opts = {});

  /// Extends the variable range by one fresh variable.
  Var new_var();

  /// Adds a clause (normalized: sorted, deduplicated, tautologies
  /// dropped, literals false at level 0 removed). Units are enqueued as
  /// level-0 facts. Returns false once the formula is unsatisfiable at
  /// level 0 (every later solve returns kUnsat).
  bool add_clause(std::vector<Lit> c);

  /// Replaces the per-solve conflict budget (0 = unlimited).
  void set_conflict_budget(uint64_t budget) {
    opts_.conflict_budget = budget;
  }

  /// Runs the CDCL loop to a verdict or the conflict budget.
  SatResult solve() { return solve({}); }

  /// Solves under the given assumption literals. kUnsat means
  /// unsatisfiable under these assumptions; the formula itself stays
  /// usable unless a level-0 conflict was derived (ok() == false).
  SatResult solve(const std::vector<Lit>& assumptions);

  /// False once a level-0 conflict proved the formula unsatisfiable.
  bool ok() const { return ok_; }

  /// Satisfying assignment per variable (0/1), valid after kSat. Every
  /// variable is assigned (the decision loop covers vars absent from
  /// all clauses).
  const std::vector<uint8_t>& model() const { return model_; }

  const SolverStats& stats() const { return stats_; }

  /// Learned clauses currently retained in the database.
  size_t learned_kept() const { return learned_count_; }

 private:
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = 0xFFFFFFFFu;

  struct Clause {
    std::vector<Lit> lits;
    double act = 0.0;      // reduction-ordering activity (learned only)
    uint32_t birth = 0;    // solve index that learned it (0 = problem)
    bool learned = false;
  };

  bool lit_true(Lit l) const {
    const int8_t a = assigns_[lit_var(l)];
    return a >= 0 && (a != 0) != lit_sign(l);
  }
  bool lit_false(Lit l) const {
    const int8_t a = assigns_[lit_var(l)];
    return a >= 0 && (a != 0) == lit_sign(l);
  }
  bool lit_unassigned(Lit l) const { return assigns_[lit_var(l)] < 0; }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // returns conflicting clause or kNoReason
  void analyze(ClauseRef confl, std::vector<Lit>* learnt,
               uint32_t* out_btlevel);
  void cancel_until(uint32_t level);
  Lit pick_branch();  // kLitUndef when all vars assigned
  void attach_clause(ClauseRef cr);
  void var_bump(Var v);
  void var_decay_all();
  void cla_bump(ClauseRef cr);
  void reduce_db();  // level-0 only: drop low-activity learned clauses

  // Activity-ordered max-heap (ties toward the smaller variable).
  bool heap_lt(Var a, Var b) const;
  void heap_insert(Var v);
  void heap_sift_up(size_t i);
  void heap_sift_down(size_t i);
  Var heap_pop();

  SolverOptions opts_;
  std::vector<Clause> clauses_;  // problem + learned
  std::vector<std::vector<ClauseRef>> watches_;  // per literal
  std::vector<int8_t> assigns_;   // per var: -1 / 0 / 1
  std::vector<uint32_t> level_;   // per var: decision level
  std::vector<ClauseRef> reason_; // per var: implying clause
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<uint8_t> phase_;       // saved polarity per var
  std::vector<Var> heap_;            // binary heap of candidate vars
  std::vector<int32_t> heap_index_;  // var -> heap slot or -1

  std::vector<uint8_t> seen_;  // conflict-analysis scratch
  bool ok_ = true;             // false once UNSAT at level 0

  size_t learned_count_ = 0;          // learned clauses in clauses_
  size_t learned_nonbinary_ = 0;      // reduction-eligible subset
  size_t learned_ceiling_ = 0;        // current reduction threshold
  uint32_t cur_solve_ = 0;            // solve index (for birth/reuse)

  std::vector<uint8_t> model_;
  SolverStats stats_;
};

/// Plain unit propagation over `cnf` from the given assumption
/// literals, with no decisions and no learning: the reference
/// propagation the CNF-lowering parity tests run against the
/// UnrolledModel simulation. Returns the assignment per variable
/// (-1 unassigned, 0 false, 1 true); sets *conflict when propagation
/// derives an empty clause. Independent of CdclSolver's propagation
/// machinery on purpose (it doubles as a cross-check of it).
std::vector<int8_t> unit_propagate(const Cnf& cnf,
                                   const std::vector<Lit>& assumptions,
                                   bool* conflict);

}  // namespace sat
}  // namespace occ
