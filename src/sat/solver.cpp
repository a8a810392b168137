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

CdclSolver::CdclSolver(const Cnf& cnf, SolverOptions opts) {
  reset(cnf, opts);
}

void CdclSolver::reset(const Cnf& cnf, SolverOptions opts) {
  opts_ = opts;
  const uint32_t n = cnf.num_vars;
  num_vars_ = n;
  if (watches_.size() < 2 * size_t{n}) watches_.resize(2 * size_t{n});
  for (size_t l = 0; l < 2 * size_t{n}; ++l) watches_[l].clear();
  assigns_.assign(n, -1);
  level_.assign(n, 0);
  reason_.assign(n, kNoReason);
  activity_.assign(n, 0.0);
  phase_.assign(n, 0);
  seen_.assign(n, 0);
  // All activities are equal, so the heap in index order is already a
  // valid heap (ties break toward the smaller index).
  heap_.resize(n);
  heap_index_.resize(n);
  for (Var v = 0; v < n; ++v) {
    heap_[v] = v;
    heap_index_[v] = static_cast<int32_t>(v);
  }
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  var_inc_ = 1.0;
  cla_inc_ = 1.0;
  ok_ = true;
  solved_ = false;
  learned_count_ = 0;
  learned_nonbinary_ = 0;
  learned_ceiling_ = opts.learned_limit;
  model_.clear();
  stats_ = {};

  arena_.clear();
  arena_.reserve(cnf.literal_count());
  clauses_.clear();
  clauses_.reserve(cnf.num_clauses());
  for (size_t i = 0; i < cnf.num_clauses() && ok_; ++i) {
    add_problem_clause(cnf.clause(i));
  }
}

void CdclSolver::add_problem_clause(std::span<const Lit> orig) {
  // Normalize in place at the arena's tail: sort, drop duplicate
  // literals, skip tautologies and literals already false at level 0,
  // skip clauses already true at level 0. The lowering never emits
  // tautologies, but fuzzed inputs may. (Level-0 facts enqueued by
  // earlier clauses may still be unpropagated; they are facts
  // regardless, so filtering against them is sound.)
  const size_t start = arena_.size();
  arena_.insert(arena_.end(), orig.begin(), orig.end());
  const auto c = arena_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(c, arena_.end());
  arena_.erase(std::unique(c, arena_.end()), arena_.end());
  const size_t len = arena_.size() - start;
  bool drop = false;
  for (size_t i = 0; i + 1 < len && !drop; ++i) {
    drop = lit_var(c[i]) == lit_var(c[i + 1]);  // tautology
  }
  size_t j = start;
  for (size_t i = start; i < arena_.size() && !drop; ++i) {
    const Lit l = arena_[i];
    OCC_CHECK(lit_var(l) < num_vars_, "sat: literal references variable ",
              lit_var(l), " but the formula declares ", num_vars_);
    if (lit_true(l)) drop = true;  // satisfied at level 0
    if (!lit_false(l)) arena_[j++] = l;
  }
  if (drop) {
    arena_.resize(start);
    return;
  }
  arena_.resize(j);
  const size_t size = j - start;
  if (size == 0) {
    ok_ = false;
    return;
  }
  if (size == 1) {
    // Level-0 fact; propagated when the solve starts.
    enqueue(arena_[start], kNoReason);
    arena_.resize(start);
    return;
  }
  const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
  clauses_.push_back(Clause{static_cast<uint32_t>(start),
                            static_cast<uint32_t>(size), 0.0, false});
  attach_clause(cr);
}

void CdclSolver::attach_clause(ClauseRef cr) {
  const Lit* c = lits(cr);
  watches_[c[0]].push_back({cr, c[1]});
  watches_[c[1]].push_back({cr, c[0]});
}

void CdclSolver::enqueue(Lit l, ClauseRef reason) {
  const Var v = lit_var(l);
  OCC_DCHECK(assigns_[v] < 0);
  assigns_[v] = lit_sign(l) ? 0 : 1;
  phase_[v] = assigns_[v] != 0;
  level_[v] = static_cast<uint32_t>(trail_lim_.size());
  reason_[v] = reason;
  trail_.push_back(l);
}

CdclSolver::ClauseRef CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p just became true
    ++stats_.propagations;
    const Lit false_lit = lit_neg(p);
    auto& ws = watches_[false_lit];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i++];
      if (lit_true(w.blocker)) {  // satisfied, clause untouched
        ws[j++] = w;
        continue;
      }
      Lit* c = lits(w.cr);
      const uint32_t size = clauses_[w.cr].size;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      OCC_DCHECK(c[1] == false_lit);
      const Watcher kept{w.cr, c[0]};
      if (c[0] != w.blocker && lit_true(c[0])) {  // already satisfied
        ws[j++] = kept;
        continue;
      }
      bool rewatched = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (!lit_false(c[k])) {
          std::swap(c[1], c[k]);
          watches_[c[1]].push_back(kept);
          rewatched = true;
          break;
        }
      }
      if (rewatched) continue;
      // All but c[0] false: unit or conflict.
      ws[j++] = kept;
      if (lit_false(c[0])) {
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.cr;
      }
      enqueue(c[0], w.cr);
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
    const Lit* c = lits(confl);
    const uint32_t size = clauses_[confl].size;
    // For reason clauses c[0] is the implied literal (== p), skip it.
    for (uint32_t k = (p == kLitUndef ? 0 : 1); k < size; ++k) {
      const Var v = lit_var(c[k]);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      var_bump(v);
      if (level_[v] >= cur_level) {
        ++path;
      } else {
        learnt->push_back(c[k]);  // lower decision levels: the tail
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

  // Local minimization (MiniSat's basic rule): a tail literal whose
  // reason's other literals are all in the clause (seen_) or fixed at
  // level 0 is implied by the rest of the clause, so dropping it keeps
  // the clause a consequence of the formula. A decision literal (no
  // reason) always stays.
  analyze_clear_.assign(learnt->begin() + 1, learnt->end());
  size_t kept = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    const ClauseRef r = reason_[lit_var((*learnt)[i])];
    bool keep = r == kNoReason;
    if (!keep) {
      const Lit* rc = lits(r);
      for (uint32_t k = 1; k < clauses_[r].size && !keep; ++k) {
        const Var u = lit_var(rc[k]);
        keep = !seen_[u] && level_[u] > 0;
      }
    }
    if (keep) (*learnt)[kept++] = (*learnt)[i];
  }
  stats_.minimized_literals += learnt->size() - kept;
  learnt->resize(kept);

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
  for (const Lit l : analyze_clear_) seen_[lit_var(l)] = 0;
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
  std::vector<ClauseRef>& cand = reduce_cand_;
  cand.clear();
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    if (clauses_[cr].learned && clauses_[cr].size > 2) cand.push_back(cr);
  }
  std::sort(cand.begin(), cand.end(), [this](ClauseRef a, ClauseRef b) {
    if (clauses_[a].act != clauses_[b].act) {
      return clauses_[a].act < clauses_[b].act;
    }
    return a > b;
  });
  const size_t drop = cand.size() / 2;
  if (drop == 0) return;
  // Mark the dropped clauses (size 0), then compact headers and arena
  // in place: clauses keep their insertion order and start offsets only
  // decrease, so every move goes downward.
  for (size_t i = 0; i < drop; ++i) clauses_[cand[i]].size = 0;
  size_t out = 0, top = 0;
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    Clause h = clauses_[cr];
    if (h.size == 0) continue;
    std::copy(arena_.begin() + h.start, arena_.begin() + h.start + h.size,
              arena_.begin() + static_cast<std::ptrdiff_t>(top));
    h.start = static_cast<uint32_t>(top);
    top += h.size;
    clauses_[out++] = h;
  }
  clauses_.resize(out);
  arena_.resize(top);
  // Watch-list order after compaction is a function of clause
  // insertion order only, so this stays deterministic.
  for (size_t l = 0; l < 2 * size_t{num_vars_}; ++l) watches_[l].clear();
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

SatResult CdclSolver::solve() {
  OCC_CHECK(!solved_, "sat: solve() runs once per reset()");
  solved_ = true;
  ++stats_.solves;
  if (!ok_) return SatResult::kUnsat;

  // Level-0 facts queued while loading the formula.
  if (propagate() != kNoReason) {
    ok_ = false;
    return SatResult::kUnsat;
  }

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
      analyze(confl, &learnt_, &bt);
      cancel_until(bt);
      if (learnt_.size() == 1) {
        enqueue(learnt_[0], kNoReason);
      } else {
        const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
        clauses_.push_back(Clause{static_cast<uint32_t>(arena_.size()),
                                  static_cast<uint32_t>(learnt_.size()),
                                  cla_inc_, true});
        arena_.insert(arena_.end(), learnt_.begin(), learnt_.end());
        attach_clause(cr);
        enqueue(learnt_[0], cr);
        ++learned_count_;
        if (learnt_.size() > 2) ++learned_nonbinary_;
      }
      ++stats_.learned_clauses;
      stats_.learned_literals += learnt_.size();
      var_decay_all();
      cla_inc_ /= opts_.clause_decay;
      if (opts_.conflict_budget != 0 &&
          stats_.conflicts >= opts_.conflict_budget) {
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
      const Lit next = pick_branch();
      if (next == kLitUndef) {
        model_.assign(assigns_.size(), 0);
        for (size_t v = 0; v < assigns_.size(); ++v) {
          model_[v] = assigns_[v] == 1;
        }
        cancel_until(0);
        return SatResult::kSat;
      }
      ++stats_.decisions;
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
  for (size_t ci = 0; ci < cnf.num_clauses(); ++ci) {
    if (cnf.clause(ci).empty()) {
      *conflict = true;
      return assign;
    }
    for (Lit l : cnf.clause(ci)) {
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
  for (size_t ci = 0; ci < cnf.num_clauses(); ++ci) {
    if (cnf.clause(ci).size() == 1) set_true(cnf.clause(ci)[0]);
  }

  for (size_t qi = 0; qi < queue.size() && !*conflict; ++qi) {
    const Lit p = queue[qi];
    for (uint32_t ci : occ[lit_neg(p)]) {
      Lit unit = kLitUndef;
      bool satisfied = false;
      size_t unassigned = 0;
      for (Lit l : cnf.clause(ci)) {
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
