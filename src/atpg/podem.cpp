#include "atpg/podem.h"

#include <algorithm>

#include "util/check.h"

namespace occ {
namespace {

/// Inlined 3-valued gate evaluation over an input accessor `val(i)`.
/// Result-identical to eval_gate(type, ins) (netlist/library.cpp) --
/// the early exits only skip inputs that cannot change the outcome
/// (controlling value seen, or X already dominates the parity) -- but
/// without the out-of-line call and the fanin copy. This is PODEM's
/// innermost loop: every implication event evaluates here.
template <typename GetVal>
inline V3 eval_fast(GateType type, size_t n, GetVal&& val) {
  switch (type) {
    case GateType::kBuf:
    case GateType::kOutput:
      return val(0);
    case GateType::kNot:
      return v3_not(val(0));
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_x = false;
      for (size_t i = 0; i < n; ++i) {
        const V3 v = val(i);
        if (v == V3::k0) {
          return type == GateType::kNand ? V3::k1 : V3::k0;
        }
        any_x = any_x || v == V3::kX;
      }
      if (any_x) return V3::kX;
      return type == GateType::kNand ? V3::k0 : V3::k1;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_x = false;
      for (size_t i = 0; i < n; ++i) {
        const V3 v = val(i);
        if (v == V3::k1) {
          return type == GateType::kNor ? V3::k0 : V3::k1;
        }
        any_x = any_x || v == V3::kX;
      }
      if (any_x) return V3::kX;
      return type == GateType::kNor ? V3::k1 : V3::k0;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = type == GateType::kXnor;
      for (size_t i = 0; i < n; ++i) {
        const V3 v = val(i);
        if (v == V3::kX) return V3::kX;
        parity = parity != (v == V3::k1);
      }
      return parity ? V3::k1 : V3::k0;
    }
    case GateType::kMux2: {
      const V3 sel = val(0);
      if (sel == V3::k0) return val(1);
      if (sel == V3::k1) return val(2);
      const V3 a = val(1), b = val(2);
      if (a == b && a != V3::kX) return a;
      return V3::kX;
    }
    case GateType::kTie0:
      return V3::k0;
    case GateType::kTie1:
      return V3::k1;
    default: {
      // Exotic/large cells: fall back to the library evaluator.
      V3 ins[8];
      std::vector<V3> big;
      V3* iv = ins;
      if (n > 8) {
        big.resize(n);
        iv = big.data();
      }
      for (size_t i = 0; i < n; ++i) iv[i] = val(i);
      return eval_gate(type, {iv, n});
    }
  }
}

}  // namespace

Podem::Podem(const UnrolledModel& model, uint32_t backtrack_limit)
    : model_(&model), comb_(&model.comb()), backtrack_limit_(backtrack_limit) {
  const size_t n = comb_->size();
  good_.assign(n, V3::kX);
  faulty_.assign(n, V3::kX);
  var_of_.assign(n, -1);
  controllable_.assign(n, false);
  is_obs_.assign(n, false);
  stem_force_.assign(n, -1);
  branch_pin_.assign(n, -1);
  queued_.assign(n, 0);
  cand_mark_.assign(n, 0);
  xpath_mark_.assign(n, 0);
  cone_mark_.assign(n, 0);
  buckets_.resize(static_cast<size_t>(comb_->max_level()) + 2);

  // Flat propagation view: one pass to size the CSR arrays, one to
  // fill them in netlist order.
  type_.resize(n);
  level_.resize(n);
  fi_off_.resize(n + 1);
  fo_off_.resize(n + 1);
  size_t nfi = 0, nfo = 0;
  for (size_t g = 0; g < n; ++g) {
    const Gate& gate = comb_->gate(static_cast<GateId>(g));
    type_[g] = gate.type;
    level_[g] = gate.level;
    fi_off_[g] = static_cast<uint32_t>(nfi);
    fo_off_[g] = static_cast<uint32_t>(nfo);
    nfi += gate.fanin.size();
    nfo += gate.fanout.size();
  }
  fi_off_[n] = static_cast<uint32_t>(nfi);
  fo_off_[n] = static_cast<uint32_t>(nfo);
  fi_.reserve(nfi);
  fo_.reserve(nfo);
  for (size_t g = 0; g < n; ++g) {
    const Gate& gate = comb_->gate(static_cast<GateId>(g));
    fi_.insert(fi_.end(), gate.fanin.begin(), gate.fanin.end());
    for (GateId o : gate.fanout) fo_.push_back({o, comb_->gate(o).level});
  }

  const auto& vars = model.var_gates();
  cube_.assign(vars.size(), V3::kX);
  for (size_t i = 0; i < vars.size(); ++i) {
    var_of_[vars[i]] = static_cast<int32_t>(i);
    controllable_[vars[i]] = true;
  }
  for (GateId o : model.observations()) is_obs_[o] = true;

  // Baseline evaluation with every variable X; controllability DP in
  // the same pass.
  for (GateId g : comb_->topo_order()) {
    const Gate& gate = comb_->gate(g);
    if (gate.type == GateType::kInput) {
      continue;  // value stays X unless assigned
    } else if (gate.type == GateType::kTie0) {
      good_[g] = V3::k0;
    } else if (gate.type == GateType::kTie1) {
      good_[g] = V3::k1;
    } else if (gate.type == GateType::kXSource) {
      good_[g] = V3::kX;  // power-up state unknown
    } else {
      good_[g] = eval_good(g);
      for (GateId f : gate.fanin) {
        controllable_[g] = controllable_[g] || controllable_[f];
      }
    }
  }
  faulty_ = good_;
  baseline_ = good_;

  // Observation reachability: filtering the X-path BFS to nets that
  // can structurally reach an observation never changes its verdict
  // (every path to an observation runs inside this set).
  reach_obs_.assign(n, false);
  const auto& topo = comb_->topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    bool r = is_obs_[g];
    for (GateId o : comb_->gate(g).fanout) r = r || reach_obs_[o];
    reach_obs_[g] = r;
  }

  // Immediate dominators toward the observations: idom_[g] = nearest
  // common ancestor (along idom chains) of g's observation-reaching
  // fanouts; observations dominate straight to the virtual sink.
  // Reverse topological order guarantees fanout chains are final.
  const int32_t vsink = static_cast<int32_t>(n);
  idom_.assign(n + 1, -1);
  idepth_.assign(n + 1, 0);
  idom_[n] = vsink;
  auto nca = [this](int32_t a, int32_t b) {
    while (a != b) {
      if (idepth_[a] >= idepth_[b]) {
        a = idom_[a];
      } else {
        b = idom_[b];
      }
    }
    return a;
  };
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    if (!reach_obs_[g]) continue;
    if (is_obs_[g]) {
      idom_[g] = vsink;
      idepth_[g] = 1;
      continue;
    }
    int32_t d = -1;
    for (GateId o : comb_->gate(g).fanout) {
      if (!reach_obs_[o]) continue;
      d = d < 0 ? static_cast<int32_t>(o) : nca(d, static_cast<int32_t>(o));
    }
    idom_[g] = d;
    idepth_[g] = idepth_[d] + 1;
  }
}

V3 Podem::eval_good(GateId g) const {
  const GateId* fi = fi_.data() + fi_off_[g];
  return eval_fast(type_[g], fi_off_[g + 1] - fi_off_[g],
                   [&](size_t i) { return good_[fi[i]]; });
}

V3 Podem::eval_faulty(GateId g) const {
  if (stem_force_[g] >= 0) return stem_force_[g] ? V3::k1 : V3::k0;
  const GateId* fi = fi_.data() + fi_off_[g];
  const size_t n = fi_off_[g + 1] - fi_off_[g];
  if (branch_pin_[g] >= 0 && fault_ != nullptr) {
    const size_t bp = static_cast<size_t>(branch_pin_[g]);
    const V3 forced = fault_->forced_value ? V3::k1 : V3::k0;
    return eval_fast(type_[g], n, [&](size_t i) {
      return i == bp ? forced : faulty_[fi[i]];
    });
  }
  return eval_fast(type_[g], n, [&](size_t i) { return faulty_[fi[i]]; });
}

void Podem::set_value(GateId g, V3 gv, V3 fv) {
  if (good_[g] == gv && faulty_[g] == fv) return;
  trail_.push_back({g, good_[g], faulty_[g]});
  good_[g] = gv;
  faulty_[g] = fv;
  if (gv != V3::kX && fv != V3::kX && gv != fv) {
    // Became a D-net: remember it and its fanouts as frontier candidates.
    if (cand_mark_[g] != run_id_) {
      cand_mark_[g] = run_id_;
      dnet_cand_.push_back(g);
      const uint32_t end = fo_off_[g + 1];
      for (uint32_t e = fo_off_[g]; e != end; ++e) {
        frontier_cand_.push_back(fo_[e].id);
      }
    }
  }
}

void Podem::enqueue_fanouts(GateId g) {
  const uint32_t end = fo_off_[g + 1];
  for (uint32_t e = fo_off_[g]; e != end; ++e) {
    const FoEdge& o = fo_[e];
    if (queued_[o.id] != epoch_) {
      queued_[o.id] = epoch_;
      buckets_[static_cast<size_t>(o.level)].push_back(o.id);
      bkt_lo_ = std::min(bkt_lo_, o.level);
      bkt_hi_ = std::max(bkt_hi_, o.level);
    }
  }
}

void Podem::imply() {
  ++stats_.implications;
  // bkt_hi_ may grow while sweeping: processing level L only enqueues
  // strictly deeper fanouts, so the forward sweep stays exhaustive.
  for (int32_t lvl = bkt_lo_; lvl <= bkt_hi_; ++lvl) {
    auto& bucket = buckets_[static_cast<size_t>(lvl)];
    for (size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const GateType t = type_[g];
      if (t == GateType::kInput || is_source(t)) continue;
      // Good/faulty evaluation open-coded (rather than through
      // eval_good/eval_faulty) so eval_fast inlines into this loop --
      // it is the whole engine's innermost path. The faulty machine
      // can only differ inside the static fanout cone of the fault
      // sites (faulty_ == good_ holds inductively outside it), so the
      // second evaluation is skipped there.
      const GateId* fi = fi_.data() + fi_off_[g];
      const size_t n = fi_off_[g + 1] - fi_off_[g];
      const V3 ng =
          eval_fast(t, n, [&](size_t k) { return good_[fi[k]]; });
      V3 nf = ng;
      if (in_cone(g)) {
        if (stem_force_[g] >= 0) {
          nf = stem_force_[g] ? V3::k1 : V3::k0;
        } else if (branch_pin_[g] >= 0) {
          const size_t bp = static_cast<size_t>(branch_pin_[g]);
          const V3 forced = fault_->forced_value ? V3::k1 : V3::k0;
          nf = eval_fast(t, n, [&](size_t k) {
            return k == bp ? forced : faulty_[fi[k]];
          });
        } else {
          nf = eval_fast(t, n, [&](size_t k) { return faulty_[fi[k]]; });
        }
      }
      if (ng != good_[g] || nf != faulty_[g]) {
        set_value(g, ng, nf);
        enqueue_fanouts(g);
      }
    }
    bucket.clear();
  }
  bkt_lo_ = INT32_MAX;
  bkt_hi_ = -1;
  ++epoch_;
}

bool Podem::constraints_ok_or_pending(bool* all_satisfied) const {
  bool all = true;
  for (const auto& [gate, val] : fault_->constraints) {
    const V3 v = good_[gate];
    const V3 want = val ? V3::k1 : V3::k0;
    if (v == V3::kX) {
      all = false;
    } else if (v != want) {
      if (all_satisfied) *all_satisfied = false;
      return false;  // violated: permanent within this subtree
    }
  }
  if (all_satisfied) *all_satisfied = all;
  return true;
}

bool Podem::fault_activatable() const {
  // A site can still (or already does) show an effect?
  for (const auto& [site, pin] : fault_->sites) {
    if (pin == kOutputPin) {
      const V3 gv = good_[site];
      const V3 want = fault_->forced_value ? V3::k0 : V3::k1;
      if (gv == V3::kX || gv == want) return true;
    } else {
      const GateId drv = fi_[fi_off_[site] + pin];
      const V3 gv = good_[drv];
      const V3 want = fault_->forced_value ? V3::k0 : V3::k1;
      if (gv == V3::kX || gv == want) return true;
      // Effect may already be latched downstream even if the driver now
      // disagrees -- covered by the D-net scan in pick_objective.
    }
  }
  // Also activated if any D-net currently exists.
  for (GateId g : dnet_cand_) {
    if (is_d(g)) return true;
  }
  return false;
}

bool Podem::detected() const {
  bool all_sat = false;
  if (!constraints_ok_or_pending(&all_sat) || !all_sat) return false;
  for (GateId o : model_->observations()) {
    if (is_d(o)) return true;
  }
  return false;
}

bool Podem::xpath_exists() const {
  // BFS from current D-nets and potentially-activatable sites through
  // X-valued nets to any observation. Restricted to observation-reaching
  // nets (verdict-preserving; see reach_obs_) and to the fault cone --
  // a D cannot exist outside it, and any net of a sensitized path is
  // X-or-D, hence inside the cone.
  ++xpath_epoch_;
  xpath_q_.clear();
  auto push = [&](GateId g) {
    if (!reach_obs_[g]) return;
    if (cone_mark_[g] != cone_epoch_) return;
    if (xpath_mark_[g] != xpath_epoch_) {
      xpath_mark_[g] = xpath_epoch_;
      xpath_q_.push_back(g);
    }
  };
  for (GateId g : dnet_cand_) {
    if (is_d(g)) push(g);
  }
  for (const auto& [site, pin] : fault_->sites) {
    const V3 gv = pin == kOutputPin
                      ? good_[site]
                      : good_[fi_[fi_off_[site] + pin]];
    const V3 want = fault_->forced_value ? V3::k0 : V3::k1;
    if (gv == V3::kX || gv == want) push(site);
  }
  for (size_t head = 0; head < xpath_q_.size(); ++head) {
    const GateId g = xpath_q_[head];
    if (is_obs_[g]) return true;
    const uint32_t end = fo_off_[g + 1];
    for (uint32_t e = fo_off_[g]; e != end; ++e) {
      const GateId o = fo_[e].id;
      // Traverse through nets that could still change or already carry D.
      if (good_[o] == V3::kX || faulty_[o] == V3::kX || is_d(o)) push(o);
    }
  }
  return false;
}

bool Podem::pick_objective(GateId* net, bool* val) {
  // 1. Unjustified side constraints first (cheap, few).
  for (const auto& [gate, want] : fault_->constraints) {
    if (good_[gate] == V3::kX) {
      if (!controllable_[gate]) return false;
      *net = gate;
      *val = want;
      return true;
    }
  }
  // 2. Branch-activated gates whose output is still unresolved: drive
  // their other inputs to non-controlling values so the corrupted pin
  // determines the output (the branch effect is invisible to the D-net
  // scan until the gate output differs).
  for (const auto& [site, pin] : fault_->sites) {
    if (pin == kOutputPin) continue;
    const GateId* site_fi = fi_.data() + fi_off_[site];
    const size_t site_nfi = fi_off_[site + 1] - fi_off_[site];
    const GateId drv = site_fi[pin];
    const V3 want_drv = fault_->forced_value ? V3::k0 : V3::k1;
    if (good_[drv] != want_drv) continue;  // not activated yet
    if (good_[site] != V3::kX && faulty_[site] != V3::kX) continue;
    const V3 cv = controlling_value(type_[site]);
    for (size_t p = 0; p < site_nfi; ++p) {
      if (p == pin) continue;
      const GateId f = site_fi[p];
      if ((good_[f] == V3::kX || faulty_[f] == V3::kX) &&
          controllable_[f] && good_[f] == V3::kX) {
        *net = f;
        *val = cv != V3::kX ? cv == V3::k0 : false;
        return true;
      }
    }
  }
  // Live D-frontier (gates with a D input and an unresolved output),
  // used by unique sensitization and the propagation step.
  frontier_buf_.clear();
  for (GateId g : frontier_cand_) {
    if (good_[g] != V3::kX && faulty_[g] != V3::kX) continue;  // resolved
    if (!reach_obs_[g]) continue;  // a D here is unobservable
    bool has_d_in = false;
    const uint32_t end = fi_off_[g + 1];
    for (uint32_t e = fi_off_[g]; e != end; ++e) {
      if (is_d(fi_[e])) {
        has_d_in = true;
        break;
      }
    }
    if (has_d_in) frontier_buf_.push_back(g);
  }

  // 3. Propagation: walk live frontier gates deepest-first (closest to
  // the observations; lower gate id breaks ties); the first gate with a
  // controllable X input gets the non-controlling value on the first
  // such input.
  std::sort(frontier_buf_.begin(), frontier_buf_.end(),
            [this](GateId a, GateId b) {
              if (level_[a] != level_[b]) return level_[a] > level_[b];
              return a < b;
            });
  for (GateId cand : frontier_buf_) {
    const uint32_t end = fi_off_[cand + 1];
    for (uint32_t e = fi_off_[cand]; e != end; ++e) {
      const GateId f = fi_[e];
      if (good_[f] != V3::kX || !controllable_[f]) continue;
      const V3 cv = controlling_value(type_[cand]);
      *net = f;
      *val = cv != V3::kX ? cv == V3::k0 : false;
      return true;
    }
  }
  // 4. Activation of a not-yet-activated site (even when another frame's
  // replica already produced a -- possibly blocked -- D: detection may
  // need a different frame).
  for (const auto& [site, pin] : fault_->sites) {
    const GateId tgt =
        pin == kOutputPin ? site : fi_[fi_off_[site] + pin];
    if (good_[tgt] == V3::kX && controllable_[tgt]) {
      *net = tgt;
      *val = !fault_->forced_value;
      return true;
    }
  }
  return false;  // nothing left to try in this subtree
}

bool Podem::backtrace(GateId net, bool val, uint32_t* var, bool* var_val) {
  GateId g = net;
  bool v = val;
  for (int guard = 0; guard < 100000; ++guard) {
    if (var_of_[g] >= 0 && good_[g] == V3::kX) {
      *var = static_cast<uint32_t>(var_of_[g]);
      *var_val = v;
      return true;
    }
    const GateType t = type_[g];
    if (is_source(t)) return false;  // tie/X-source dead end
    const GateId* fi = fi_.data() + fi_off_[g];
    const size_t nfi = fi_off_[g + 1] - fi_off_[g];
    // Map desired output value to a desired input value.
    bool v_in = v;
    if (is_inverting(t)) v_in = !v;
    // Descend through the first X input, in pin order, whose cone
    // contains a variable.
    GateId next = kNoGate;
    for (size_t i = 0; i < nfi; ++i) {
      if (good_[fi[i]] == V3::kX && controllable_[fi[i]]) {
        next = fi[i];
        break;
      }
    }
    if (next == kNoGate) return false;
    if (t == GateType::kXor || t == GateType::kXnor) {
      // Parity-aware: desired input value = desired output xor the
      // parity of the other (known) inputs; unknown siblings default
      // to 0, so the chosen input carries the full parity.
      for (size_t i = 0; i < nfi; ++i) {
        if (fi[i] != next && good_[fi[i]] == V3::k1) v_in = !v_in;
      }
    }
    // A MUX walks with the same polarity: value correlation is weak
    // there (heuristic only -- correctness comes from implication).
    g = next;
    v = v_in;
  }
  return false;
}

void Podem::assign_var(uint32_t var, bool val) {
  const GateId g = model_->var_gates()[var];
  const V3 v = val ? V3::k1 : V3::k0;
  // A load/PI variable can itself be a fault stem (e.g. flop output or
  // PI stuck-at): the faulty machine keeps the forced value.
  const V3 fv = stem_force_[g] >= 0
                    ? (stem_force_[g] ? V3::k1 : V3::k0)
                    : v;
  set_value(g, v, fv);
  cube_[var] = v;
  enqueue_fanouts(g);
  imply();
}

void Podem::undo_to(size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    good_[e.gate] = e.old_good;
    faulty_[e.gate] = e.old_faulty;
    trail_.pop_back();
  }
}

void Podem::mark_cone(const UnrolledFault& fault) {
  ++cone_epoch_;
  cone_stack_.clear();
  for (const auto& [site, pin] : fault.sites) {
    if (cone_mark_[site] != cone_epoch_) {
      cone_mark_[site] = cone_epoch_;
      cone_stack_.push_back(site);
    }
  }
  for (size_t i = 0; i < cone_stack_.size(); ++i) {
    const GateId g = cone_stack_[i];
    const uint32_t end = fo_off_[g + 1];
    for (uint32_t e = fo_off_[g]; e != end; ++e) {
      const GateId o = fo_[e].id;
      if (cone_mark_[o] != cone_epoch_) {
        cone_mark_[o] = cone_epoch_;
        cone_stack_.push_back(o);
      }
    }
  }
}

bool Podem::site_blocked_statically(GateId site) const {
  // Soundness: baseline values (all variables X) are invariant under
  // any assignment -- 3-valued simulation is monotone, definite stays
  // definite -- and nets outside the fault cone carry identical values
  // in both machines. A dominator of `site` with an out-of-cone side
  // input at its controlling baseline value therefore has a fixed,
  // equal output in both machines forever: no effect from `site` can
  // pass it, and every site->observation path must (it dominates).
  // A MUX dominator is blocked the same way when an out-of-cone
  // constant select picks an out-of-cone data input: its output is that
  // input, equal in both machines.
  if (!reach_obs_[site]) return true;
  const int32_t vsink = static_cast<int32_t>(comb_->size());
  for (int32_t d = idom_[site]; d != vsink; d = idom_[d]) {
    const GateId dg = static_cast<GateId>(d);
    const GateId* fi = fi_.data() + fi_off_[dg];
    if (type_[dg] == GateType::kMux2) {
      const uint32_t picked = picked_mux_pin(dg);
      if (picked != 0 && !in_cone(fi[picked])) return true;
      continue;
    }
    const V3 cv = controlling_value(type_[dg]);
    if (cv == V3::kX) continue;
    const uint32_t n = fi_off_[dg + 1] - fi_off_[dg];
    for (uint32_t i = 0; i < n; ++i) {
      if (baseline_[fi[i]] == cv && !in_cone(fi[i])) return true;
    }
  }
  return false;
}

bool Podem::pin_ignored_statically(GateId site, uint32_t pin) const {
  // The site's own gate never looks at the faulted pin: a MUX whose
  // out-of-cone constant select picks the other data input, or an
  // AND/OR-family gate with an out-of-cone side input at the
  // controlling constant (its output is then fixed in both machines).
  // The gate output can still differ through another in-cone input,
  // but only by an effect that starts at another site, which the early
  // abort checks on its own.
  const GateId* fi = fi_.data() + fi_off_[site];
  if (type_[site] == GateType::kMux2) {
    const uint32_t picked = picked_mux_pin(site);
    return picked != 0 && pin != 0 && picked != pin;
  }
  const V3 cv = controlling_value(type_[site]);
  if (cv == V3::kX) return false;
  const uint32_t n = fi_off_[site + 1] - fi_off_[site];
  for (uint32_t i = 0; i < n; ++i) {
    if (i != pin && baseline_[fi[i]] == cv && !in_cone(fi[i])) return true;
  }
  return false;
}

uint32_t Podem::picked_mux_pin(GateId mux) const {
  const GateId sel = fi_[fi_off_[mux]];
  if (baseline_[sel] == V3::kX || in_cone(sel)) return 0;
  return baseline_[sel] == V3::k1 ? 2 : 1;
}

Podem::Outcome Podem::run(const UnrolledFault& fault) {
  ++stats_.runs;
  ++run_id_;
  fault_ = &fault;
  dnet_cand_.clear();
  frontier_cand_.clear();
  stack_.clear();
  std::fill(cube_.begin(), cube_.end(), V3::kX);
  const size_t base_mark = trail_.size();
  OCC_CHECK(base_mark == 0, "trail not empty at run start");

  // Static fanout cone of the sites: bounds faulty evaluation and the
  // X-path / dominator checks.
  mark_cone(fault);

  // Dominator early abort: an instance is untestable outright when no
  // site can activate (baseline permits the non-forced value), pass its
  // pin through its own gate (pin_ignored_statically) and propagate (no
  // dominator is blocked by out-of-cone baseline constants; see
  // site_blocked_statically).
  bool any_open = false;
  const V3 act = fault.forced_value ? V3::k0 : V3::k1;
  for (const auto& [site, pin] : fault.sites) {
    const GateId t = pin == kOutputPin ? site : fi_[fi_off_[site] + pin];
    if (baseline_[t] != V3::kX && baseline_[t] != act) continue;
    if (pin != kOutputPin && pin_ignored_statically(site, pin)) continue;
    if (site_blocked_statically(site)) continue;
    any_open = true;
    break;
  }
  if (!any_open) {
    ++stats_.dominator_prunes;
    fault_ = nullptr;
    return Outcome::kUntestable;
  }

  // Install the fault.
  for (const auto& [site, pin] : fault.sites) {
    if (pin == kOutputPin) {
      stem_force_[site] = fault.forced_value ? 1 : 0;
    } else {
      branch_pin_[site] = pin;
    }
  }
  // Seed implication from the sites.
  ++epoch_;
  for (const auto& [site, pin] : fault.sites) {
    if (pin == kOutputPin) {
      const V3 nf = eval_faulty(site);
      if (nf != faulty_[site]) {
        set_value(site, good_[site], nf);
        enqueue_fanouts(site);
      }
    } else {
      queued_[site] = epoch_;
      buckets_[static_cast<size_t>(level_[site])].push_back(site);
      bkt_lo_ = std::min(bkt_lo_, level_[site]);
      bkt_hi_ = std::max(bkt_hi_, level_[site]);
    }
  }
  imply();

  auto cleanup = [&]() {
    undo_to(0);
    for (const auto& [site, pin] : fault.sites) {
      if (pin == kOutputPin) {
        stem_force_[site] = -1;
      } else {
        branch_pin_[site] = -1;
      }
    }
    fault_ = nullptr;
  };

  uint32_t backtracks = 0;
  // A failed backtrace cuts its subtree without refuting it (another
  // objective, e.g. another frame's site, might still succeed), so an
  // exhausted search after one proves nothing.
  bool cut_unrefuted = false;
  Outcome out = Outcome::kUntestable;
  for (;;) {
    bool conflict = false;
    if (!constraints_ok_or_pending(nullptr)) {
      conflict = true;
    } else if (detected()) {
      out = Outcome::kDetected;
      break;
    } else if (!fault_activatable() || !xpath_exists()) {
      conflict = true;
    }

    if (!conflict) {
      GateId net;
      bool val;
      if (!pick_objective(&net, &val)) {
        conflict = true;
      } else {
        uint32_t var;
        bool var_val;
        if (!backtrace(net, val, &var, &var_val)) {
          conflict = true;
          cut_unrefuted = true;
        } else {
          ++stats_.decisions;
          stack_.push_back({var, false, trail_.size()});
          assign_var(var, var_val);
          continue;
        }
      }
    }

    // Conflict: flip the most recent decision not yet tried both ways.
    ++stats_.backtracks;
    if (++backtracks > backtrack_limit_) {
      out = Outcome::kAborted;
      break;
    }
    bool resumed = false;
    while (!stack_.empty()) {
      Decision& d = stack_.back();
      const V3 old = cube_[d.var];
      undo_to(d.trail_mark);
      cube_[d.var] = V3::kX;
      if (!d.tried_both) {
        d.tried_both = true;
        assign_var(d.var, old == V3::k0);  // try the other value
        resumed = true;
        break;
      }
      stack_.pop_back();
    }
    if (!resumed && stack_.empty()) {
      out = cut_unrefuted ? Outcome::kAborted : Outcome::kUntestable;
      break;
    }
  }

  // Preserve the cube on success before cleanup (cube_ survives; trail
  // undo restores values but not cube_).
  cleanup();
  return out;
}

}  // namespace occ
