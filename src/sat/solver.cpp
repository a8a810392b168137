#include "sat/solver.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace occ {
namespace sat {
namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...), 1-based.
uint64_t luby(uint64_t i) {
  // Find the finite subsequence containing index i, then recurse.
  uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

}  // namespace

CdclSolver::CdclSolver(const Cnf& cnf, SolverOptions opts)
    : opts_(opts), learned_ceiling_(opts.learned_limit) {
  const size_t n = cnf.num_vars;
  watches_.assign(2 * n, {});
  assigns_.assign(n, -1);
  level_.assign(n, 0);
  reason_.assign(n, kNoReason);
  activity_.assign(n, 0.0);
  phase_.assign(n, 0);
  seen_.assign(n, 0);
  heap_index_.assign(n, -1);
  heap_.reserve(n);
  for (Var v = 0; v < n; ++v) heap_insert(v);

  clauses_.reserve(cnf.clauses.size());
  for (const auto& orig : cnf.clauses) add_clause(orig);
}

Var CdclSolver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  watches_.emplace_back();
  watches_.emplace_back();
  assigns_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  phase_.push_back(0);
  seen_.push_back(0);
  heap_index_.push_back(-1);
  heap_insert(v);
  return v;
}

bool CdclSolver::add_clause(std::vector<Lit> c) {
  OCC_CHECK(trail_lim_.empty(),
            "sat: add_clause is only legal at decision level 0");
  if (!ok_) return false;
  // Normalize: sort, drop duplicate literals, skip tautologies and
  // literals already false at level 0, skip clauses already true at
  // level 0. The lowering never emits tautologies, but fuzzed inputs
  // may. (Level-0 facts enqueued by earlier add_clause calls may still
  // be unpropagated; they are facts regardless, so filtering against
  // them is sound.)
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (lit_var(c[i]) == lit_var(c[i + 1])) return true;  // tautology
  }
  size_t j = 0;
  for (const Lit l : c) {
    OCC_CHECK(lit_var(l) < assigns_.size(),
              "sat: literal references variable ", lit_var(l),
              " but the solver declares ", assigns_.size());
    if (lit_true(l)) return true;  // satisfied at level 0
    if (!lit_false(l)) c[j++] = l;
  }
  c.resize(j);

  if (c.empty()) {
    ok_ = false;
    return false;
  }
  if (c.size() == 1) {
    // Level-0 fact; propagation is deferred to the next solve so a
    // batch of adds behaves like one formula extension.
    enqueue(c[0], kNoReason);
    return true;
  }
  const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
  clauses_.push_back(Clause{std::move(c), 0.0, 0, false});
  attach_clause(cr);
  return true;
}

void CdclSolver::attach_clause(ClauseRef cr) {
  const auto& c = clauses_[cr].lits;
  watches_[c[0]].push_back(cr);
  watches_[c[1]].push_back(cr);
}

void CdclSolver::enqueue(Lit l, ClauseRef reason) {
  const Var v = lit_var(l);
  OCC_DCHECK(assigns_[v] < 0);
  assigns_[v] = lit_sign(l) ? 0 : 1;
  phase_[v] = assigns_[v] != 0;
  level_[v] = static_cast<uint32_t>(trail_lim_.size());
  reason_[v] = reason;
  if (reason != kNoReason) {
    const Clause& rc = clauses_[reason];
    if (rc.learned && rc.birth != cur_solve_) ++stats_.learned_reused;
  }
  trail_.push_back(l);
}

CdclSolver::ClauseRef CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p just became true
    ++stats_.propagations;
    auto& ws = watches_[lit_neg(p)];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      const ClauseRef cr = ws[i++];
      auto& c = clauses_[cr].lits;
      const Lit false_lit = lit_neg(p);
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      OCC_DCHECK(c[1] == false_lit);
      if (lit_true(c[0])) {  // already satisfied
        ws[j++] = cr;
        continue;
      }
      bool rewatched = false;
      for (size_t k = 2; k < c.size(); ++k) {
        if (!lit_false(c[k])) {
          std::swap(c[1], c[k]);
          watches_[c[1]].push_back(cr);
          rewatched = true;
          break;
        }
      }
      if (rewatched) continue;
      // All but c[0] false: unit or conflict.
      ws[j++] = cr;
      if (lit_false(c[0])) {
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(c[0], cr);
    }
    ws.resize(j);
  }
  return kNoReason;
}

void CdclSolver::analyze(ClauseRef confl, std::vector<Lit>* learnt,
                         uint32_t* out_btlevel) {
  learnt->clear();
  learnt->push_back(kLitUndef);  // slot for the asserting (first-UIP) lit
  const uint32_t cur_level = static_cast<uint32_t>(trail_lim_.size());
  size_t path = 0;
  Lit p = kLitUndef;
  size_t index = trail_.size();

  do {
    OCC_DCHECK(confl != kNoReason);
    cla_bump(confl);
    const auto& c = clauses_[confl].lits;
    // For reason clauses c[0] is the implied literal (== p), skip it.
    for (size_t k = (p == kLitUndef ? 0 : 1); k < c.size(); ++k) {
      const Var v = lit_var(c[k]);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      var_bump(v);
      if (level_[v] >= cur_level) {
        ++path;
      } else {
        // Literals on lower decision levels join the learnt tail. An
        // assumption-level decision literal lands here too (its reason
        // is kNoReason, but the walk below only dereferences reasons of
        // current-level literals), which keeps the learnt clause a
        // consequence of the clause database alone.
        learnt->push_back(c[k]);
      }
    }
    while (!seen_[lit_var(trail_[--index])]) {
    }
    p = trail_[index];
    confl = reason_[lit_var(p)];
    seen_[lit_var(p)] = 0;
    --path;
  } while (path > 0);
  (*learnt)[0] = lit_neg(p);

  // Backtrack level: highest level among the tail literals; swap that
  // literal into slot 1 so it is watched.
  uint32_t bt = 0;
  size_t max_i = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    const uint32_t lv = level_[lit_var((*learnt)[i])];
    if (lv > bt) {
      bt = lv;
      max_i = i;
    }
  }
  if (learnt->size() > 1) std::swap((*learnt)[1], (*learnt)[max_i]);
  *out_btlevel = bt;
  for (size_t i = 1; i < learnt->size(); ++i) {
    seen_[lit_var((*learnt)[i])] = 0;
  }
}

void CdclSolver::cancel_until(uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const size_t bound = trail_lim_[level];
  for (size_t i = trail_.size(); i > bound; --i) {
    const Var v = lit_var(trail_[i - 1]);
    assigns_[v] = -1;
    reason_[v] = kNoReason;
    if (heap_index_[v] < 0) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = bound;
}

Lit CdclSolver::pick_branch() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] < 0) return mk_lit(v, phase_[v] == 0);
  }
  return kLitUndef;
}

void CdclSolver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_index_[v] >= 0) heap_sift_up(static_cast<size_t>(heap_index_[v]));
}

void CdclSolver::var_decay_all() { var_inc_ /= opts_.var_decay; }

void CdclSolver::cla_bump(ClauseRef cr) {
  Clause& c = clauses_[cr];
  if (!c.learned) return;
  c.act += cla_inc_;
  if (c.act > 1e20) {
    for (Clause& cl : clauses_) {
      if (cl.learned) cl.act *= 1e-20;
    }
    cla_inc_ *= 1e-20;
  }
}

void CdclSolver::reduce_db() {
  OCC_DCHECK(trail_lim_.empty());
  // Level-0 facts are permanent; detach them from their reason clauses
  // so no retained assignment locks a removable clause.
  for (const Lit l : trail_) reason_[lit_var(l)] = kNoReason;

  // Candidates: learned non-binary clauses, ordered by (activity
  // ascending, insertion index descending) so the least useful and, on
  // ties, the youngest go first. Drop half.
  std::vector<ClauseRef> cand;
  cand.reserve(learned_nonbinary_);
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    if (clauses_[cr].learned && clauses_[cr].lits.size() > 2) {
      cand.push_back(cr);
    }
  }
  std::sort(cand.begin(), cand.end(), [this](ClauseRef a, ClauseRef b) {
    if (clauses_[a].act != clauses_[b].act) {
      return clauses_[a].act < clauses_[b].act;
    }
    return a > b;
  });
  const size_t drop = cand.size() / 2;
  if (drop == 0) return;
  std::vector<uint8_t> remove(clauses_.size(), 0);
  for (size_t i = 0; i < drop; ++i) remove[cand[i]] = 1;

  // Compact the clause vector and rebuild every watch list; watch-list
  // order after compaction is a function of clause insertion order
  // only, so this stays deterministic.
  std::vector<Clause> kept;
  kept.reserve(clauses_.size() - drop);
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    if (!remove[cr]) kept.push_back(std::move(clauses_[cr]));
  }
  clauses_ = std::move(kept);
  for (auto& ws : watches_) ws.clear();
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) attach_clause(cr);

  learned_count_ -= drop;
  learned_nonbinary_ -= drop;
  ++stats_.db_reductions;
  stats_.learned_removed += drop;
  learned_ceiling_ += learned_ceiling_ / 2;
}

bool CdclSolver::heap_lt(Var a, Var b) const {
  if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
  return a < b;  // deterministic tie-break: smaller index first
}

void CdclSolver::heap_insert(Var v) {
  heap_index_[v] = static_cast<int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void CdclSolver::heap_sift_up(size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!heap_lt(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int32_t>(i);
}

void CdclSolver::heap_sift_down(size_t i) {
  const Var v = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_lt(heap_[child + 1], heap_[child])) ++child;
    if (!heap_lt(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = static_cast<int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int32_t>(i);
}

Var CdclSolver::heap_pop() {
  const Var v = heap_[0];
  heap_index_[v] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return v;
}

SatResult CdclSolver::solve(const std::vector<Lit>& assumptions) {
  ++stats_.solves;
  cur_solve_ = static_cast<uint32_t>(stats_.solves);
  if (!assumptions.empty()) ++stats_.assumption_solves;
  if (!ok_) return SatResult::kUnsat;
  cancel_until(0);

  // Vars popped by a previous solve's pick_branch but never reinserted
  // (the SAT exit path leaves the heap drained) go back in ascending
  // index order.
  for (Var v = 0; v < assigns_.size(); ++v) {
    if (assigns_[v] < 0 && heap_index_[v] < 0) heap_insert(v);
  }
  for (const Lit a : assumptions) {
    OCC_CHECK(lit_var(a) < assigns_.size(),
              "sat: assumption references variable ", lit_var(a),
              " but the solver declares ", assigns_.size());
  }

  // Level-0 facts queued by add_clause since the last solve.
  if (propagate() != kNoReason) {
    ok_ = false;
    return SatResult::kUnsat;
  }

  const uint64_t conflicts_at_entry = stats_.conflicts;
  std::vector<Lit> learnt;
  uint64_t restart_seq = 0;
  uint64_t until_restart = luby(restart_seq) * opts_.restart_base;

  while (true) {
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      if (trail_lim_.empty()) {
        ok_ = false;
        return SatResult::kUnsat;
      }
      uint32_t bt = 0;
      analyze(confl, &learnt, &bt);
      cancel_until(bt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
        clauses_.push_back(Clause{learnt, cla_inc_, cur_solve_, true});
        attach_clause(cr);
        enqueue(learnt[0], cr);
        ++learned_count_;
        if (learnt.size() > 2) ++learned_nonbinary_;
      }
      ++stats_.learned_clauses;
      stats_.learned_literals += learnt.size();
      var_decay_all();
      cla_inc_ /= opts_.clause_decay;
      if (opts_.conflict_budget != 0 &&
          stats_.conflicts - conflicts_at_entry >= opts_.conflict_budget) {
        cancel_until(0);
        return SatResult::kUnknown;
      }
      if (--until_restart == 0) {
        ++stats_.restarts;
        ++restart_seq;
        until_restart = luby(restart_seq) * opts_.restart_base;
        cancel_until(0);
        if (learned_ceiling_ != 0 && learned_nonbinary_ > learned_ceiling_) {
          reduce_db();
        }
      }
    } else {
      // All assumptions first, one per decision level (MiniSat-style):
      // an assumption already true gets an empty level so analyze()'s
      // level arithmetic stays uniform; one already false means the
      // formula is UNSAT under these assumptions only.
      Lit next = kLitUndef;
      while (trail_lim_.size() < assumptions.size()) {
        const Lit a = assumptions[trail_lim_.size()];
        if (lit_true(a)) {
          trail_lim_.push_back(trail_.size());
        } else if (lit_false(a)) {
          cancel_until(0);
          return SatResult::kUnsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == kLitUndef) {
        next = pick_branch();
        if (next == kLitUndef) {
          model_.assign(assigns_.size(), 0);
          for (size_t v = 0; v < assigns_.size(); ++v) {
            model_[v] = assigns_[v] == 1;
          }
          cancel_until(0);
          return SatResult::kSat;
        }
        ++stats_.decisions;
      }
      trail_lim_.push_back(trail_.size());
      enqueue(next, kNoReason);
    }
  }
}

std::vector<int8_t> unit_propagate(const Cnf& cnf,
                                   const std::vector<Lit>& assumptions,
                                   bool* conflict) {
  *conflict = false;
  std::vector<int8_t> assign(cnf.num_vars, -1);
  // Occurrence lists per literal.
  std::vector<std::vector<uint32_t>> occ(2 * cnf.num_vars);
  for (size_t ci = 0; ci < cnf.clauses.size(); ++ci) {
    if (cnf.clauses[ci].empty()) {
      *conflict = true;
      return assign;
    }
    for (Lit l : cnf.clauses[ci]) {
      occ[l].push_back(static_cast<uint32_t>(ci));
    }
  }

  std::vector<Lit> queue;
  const auto set_true = [&](Lit l) {
    const Var v = lit_var(l);
    const int8_t want = lit_sign(l) ? 0 : 1;
    if (assign[v] >= 0) {
      if (assign[v] != want) *conflict = true;
      return;
    }
    assign[v] = want;
    queue.push_back(l);
  };

  for (Lit a : assumptions) set_true(a);
  for (const auto& c : cnf.clauses) {
    if (c.size() == 1) set_true(c[0]);
  }

  for (size_t qi = 0; qi < queue.size() && !*conflict; ++qi) {
    const Lit p = queue[qi];
    for (uint32_t ci : occ[lit_neg(p)]) {
      const auto& c = cnf.clauses[ci];
      Lit unit = kLitUndef;
      bool satisfied = false;
      size_t unassigned = 0;
      for (Lit l : c) {
        const int8_t a = assign[lit_var(l)];
        if (a < 0) {
          ++unassigned;
          unit = l;
        } else if ((a != 0) != lit_sign(l)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) {
        *conflict = true;
        break;
      }
      if (unassigned == 1) set_true(unit);
    }
  }
  return assign;
}

}  // namespace sat
}  // namespace occ
