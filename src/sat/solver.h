// In-tree CDCL SAT solver for the ATPG backend.
//
// Classic conflict-driven clause learning in the MiniSat mold: two
// watched literals per clause (with blocker literals), first-UIP
// conflict analysis with local
// learned-clause minimization, VSIDS-style activity-ordered decisions
// with phase saving, Luby restarts and a per-solve conflict budget
// (exhaustion returns kUnknown, which the ATPG stage maps to "still
// aborted"). The learned database is bounded by a deterministic
// activity-based reduction (binaries are kept forever).
//
// The solver is one-shot: reset() loads a formula, solve() decides it
// once. Clauses live in one flat literal arena, so loading a formula
// copies buffers instead of allocating per clause, and reset() keeps
// every buffer's capacity, so a solver reused across formulas stops
// allocating once its buffers have grown. A reset solver carries no
// state of its earlier formulas: its verdict, model and counters are
// those of a freshly constructed one.
//
// Determinism contract: a solve is a pure function of the formula (its
// clause order included) and the options. Decisions break activity ties
// toward the smaller variable index, clause and watch traversal follow
// insertion order, database reduction orders by (activity, insertion
// index), and no wall-clock, randomization or address-order input
// exists -- so repeated runs (and runs on different machines) produce
// identical models, conflict counts and learned clauses.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/cnf.h"

namespace occ {
namespace sat {

/// Outcome of one solve.
enum class SatResult : uint8_t {
  kSat,     ///< model() holds a satisfying assignment
  kUnsat,   ///< unsatisfiable
  kUnknown  ///< conflict budget exhausted before a verdict
};

struct SolverOptions {
  /// Conflict budget of the solve; 0 = unlimited. On exhaustion solve()
  /// returns kUnknown.
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

/// Deterministic work counters of one solve.
struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t learned_literals = 0;   ///< after minimization
  uint64_t minimized_literals = 0; ///< tail literals minimization dropped
  uint64_t solves = 0;             ///< solve() calls (0 or 1)
  uint64_t db_reductions = 0;      ///< learned-database reduction passes
  uint64_t learned_removed = 0;    ///< learned clauses dropped by reductions
};

/// One-shot CDCL solver (see the file comment).
class CdclSolver {
 public:
  /// An empty solver; reset() loads its formula.
  CdclSolver() = default;
  /// Same as reset(cnf, opts) on an empty solver.
  explicit CdclSolver(const Cnf& cnf, SolverOptions opts = {});

  /// Loads `cnf`, dropping everything of the previous formula but the
  /// buffers' capacity. Clauses are normalized on the way in (sorted,
  /// deduplicated, tautologies dropped, literals false at level 0
  /// removed); units become level-0 facts.
  void reset(const Cnf& cnf, SolverOptions opts = {});

  /// Runs the CDCL loop to a verdict or the conflict budget. Once per
  /// loaded formula.
  SatResult solve();

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

  /// A clause's place in the literal arena plus its bookkeeping.
  struct Clause {
    uint32_t start = 0;    // offset of the first literal in arena_
    uint32_t size = 0;
    double act = 0.0;      // reduction-ordering activity (learned only)
    bool learned = false;
  };

  Lit* lits(ClauseRef cr) { return arena_.data() + clauses_[cr].start; }
  const Lit* lits(ClauseRef cr) const {
    return arena_.data() + clauses_[cr].start;
  }

  bool lit_true(Lit l) const {
    const int8_t a = assigns_[lit_var(l)];
    return a >= 0 && (a != 0) != lit_sign(l);
  }
  bool lit_false(Lit l) const {
    const int8_t a = assigns_[lit_var(l)];
    return a >= 0 && (a != 0) == lit_sign(l);
  }

  void add_problem_clause(std::span<const Lit> c);
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
  uint32_t num_vars_ = 0;
  std::vector<Lit> arena_;       // every clause's literals
  std::vector<Clause> clauses_;  // problem + learned, insertion order
  // A watch of clause `cr` with a blocker: some other literal of the
  // clause. A true blocker means the clause is satisfied, which
  // propagation sees without touching the clause's literals.
  struct Watcher {
    ClauseRef cr;
    Lit blocker;
  };
  // Per literal: the clauses watching it, visited when it turns false.
  // Never shrinks, so a reused solver keeps the lists' capacity; only
  // the first 2 * num_vars_ lists are live.
  std::vector<std::vector<Watcher>> watches_;
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

  std::vector<uint8_t> seen_;       // conflict-analysis scratch
  std::vector<Lit> learnt_;         // conflict-analysis output
  std::vector<Lit> analyze_clear_;  // tail literals whose seen_ to reset
  std::vector<ClauseRef> reduce_cand_;  // reduce_db() scratch
  bool ok_ = true;                  // false once UNSAT at level 0
  bool solved_ = false;             // solve() ran on this formula

  size_t learned_count_ = 0;          // learned clauses in clauses_
  size_t learned_nonbinary_ = 0;      // reduction-eligible subset
  size_t learned_ceiling_ = 0;        // current reduction threshold

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
