#include "sat/lower.h"

#include <algorithm>

#include "netlist/library.h"
#include "util/check.h"

namespace occ {
namespace sat {

void CnfLowering::begin(const UnrolledModel& um) {
  um_ = &um;
  const size_t n = um.comb().size();
  cnf_.clear();
  slot_.assign(n, kNotLowered);
  lower_.assign(n, 0);
  lowered_.clear();
}

void CnfLowering::lower_good_machine(const UnrolledModel& um) {
  begin(um);
  std::fill(lower_.begin(), lower_.end(), 1);
  emit_good_machine();
}

void CnfLowering::emit_good_machine() {
  const Netlist& nl = um_->comb();
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!lower_[g]) continue;
    slot_[g] = static_cast<uint32_t>(lowered_.size());
    lowered_.push_back(g);
  }
  cnf_.num_vars = static_cast<uint32_t>(1 + 2 * lowered_.size());
  cnf_.add_unit(mk_lit(0));  // the constant-true anchor variable
  for (const GateId g : lowered_) {
    const Gate& gate = nl.gate(g);
    const RailPair out = good(g);
    switch (gate.type) {
      case GateType::kInput:
        // Model variables take a definite value: exactly one rail true.
        cnf_.add_binary(out.one, out.zero);
        cnf_.add_binary(lit_neg(out.one), lit_neg(out.zero));
        break;
      case GateType::kTie0:
        cnf_.add_unit(lit_neg(out.one));
        cnf_.add_unit(out.zero);
        break;
      case GateType::kTie1:
        cnf_.add_unit(out.one);
        cnf_.add_unit(lit_neg(out.zero));
        break;
      case GateType::kXSource:
        // Uncontrollable state: neither rail, i.e. permanently X.
        cnf_.add_unit(lit_neg(out.one));
        cnf_.add_unit(lit_neg(out.zero));
        break;
      default:
        in_.clear();
        for (GateId f : gate.fanin) {
          OCC_DCHECK(lowered(f));
          in_.push_back(good(f));
        }
        emit_gate(gate.type, out, in_);
        break;
    }
  }
}

void CnfLowering::add_term(std::initializer_list<Lit> t) {
  term_lits_.insert(term_lits_.end(), t.begin(), t.end());
  term_ends_.push_back(static_cast<uint32_t>(term_lits_.size()));
}

void CnfLowering::emit_iff_or_of_ands(Lit out) {
  const size_t nt = term_ends_.size();
  const auto term_begin = [&](size_t t) {
    return t == 0 ? uint32_t{0} : term_ends_[t - 1];
  };
  // Forward: each fully-true term forces `out`.
  for (size_t t = 0; t < nt; ++t) {
    cnf_.lits.push_back(out);
    for (uint32_t i = term_begin(t); i < term_ends_[t]; ++i) {
      cnf_.lits.push_back(lit_neg(term_lits_[i]));
    }
    cnf_.end_clause();
  }
  // Backward: `out` forces some term; expand the cartesian product that
  // picks one literal per term. Duplicate picks (shared literals across
  // terms, e.g. the MUX consensus term) collapse; complementary picks
  // cannot arise because rails of one signal are distinct variables.
  pick_.assign(nt, 0);
  for (;;) {
    const size_t start = cnf_.lits.size();
    cnf_.lits.push_back(lit_neg(out));
    for (size_t t = 0; t < nt; ++t) {
      cnf_.lits.push_back(term_lits_[term_begin(t) + pick_[t]]);
    }
    const auto tail =
        cnf_.lits.begin() + static_cast<std::ptrdiff_t>(start + 1);
    std::sort(tail, cnf_.lits.end());
    cnf_.lits.erase(std::unique(tail, cnf_.lits.end()), cnf_.lits.end());
    cnf_.end_clause();
    size_t t = 0;
    while (t < nt && ++pick_[t] == term_ends_[t] - term_begin(t)) {
      pick_[t] = 0;
      ++t;
    }
    if (t == nt) break;
  }
  term_lits_.clear();
  term_ends_.clear();
}

void CnfLowering::emit_gate(GateType type, RailPair out,
                            const std::vector<RailPair>& in) {
  // Inverting types are their non-inverting duals with output rails
  // swapped (is-1 of a NAND is is-0 of the AND, and vice versa).
  const RailPair swapped{out.zero, out.one};
  switch (type) {
    case GateType::kNand:
      emit_gate(GateType::kAnd, swapped, in);
      return;
    case GateType::kNor:
      emit_gate(GateType::kOr, swapped, in);
      return;
    case GateType::kNot:
      emit_gate(GateType::kBuf, swapped, in);
      return;
    case GateType::kXnor:
      emit_gate(GateType::kXor, swapped, in);
      return;
    default:
      break;
  }
  // Rail exclusion. Implied by the two-sided templates plus input
  // exclusion, but stating it per gate lets the solver propagate it
  // without a cone-wide derivation.
  cnf_.add_binary(lit_neg(out.one), lit_neg(out.zero));
  switch (type) {
    case GateType::kBuf:
    case GateType::kOutput:
      add_term({in[0].one});
      emit_iff_or_of_ands(out.one);
      add_term({in[0].zero});
      emit_iff_or_of_ands(out.zero);
      break;
    case GateType::kAnd:
      // One all-ones term; one single-literal term per zero input.
      for (const RailPair& p : in) term_lits_.push_back(p.one);
      term_ends_.push_back(static_cast<uint32_t>(term_lits_.size()));
      emit_iff_or_of_ands(out.one);
      for (const RailPair& p : in) add_term({p.zero});
      emit_iff_or_of_ands(out.zero);
      break;
    case GateType::kOr:
      for (const RailPair& p : in) add_term({p.one});
      emit_iff_or_of_ands(out.one);
      for (const RailPair& p : in) term_lits_.push_back(p.zero);
      term_ends_.push_back(static_cast<uint32_t>(term_lits_.size()));
      emit_iff_or_of_ands(out.zero);
      break;
    case GateType::kXor: {
      // N-ary XOR as a left fold of binary steps; intermediate results
      // get fresh auxiliary rail pairs.
      RailPair acc = in[0];
      for (size_t i = 1; i < in.size(); ++i) {
        RailPair nxt;
        if (i + 1 == in.size()) {
          nxt = out;
        } else {
          nxt = {mk_lit(cnf_.new_var()), mk_lit(cnf_.new_var())};
          cnf_.add_binary(lit_neg(nxt.one), lit_neg(nxt.zero));
        }
        add_term({acc.one, in[i].zero});
        add_term({acc.zero, in[i].one});
        emit_iff_or_of_ands(nxt.one);
        add_term({acc.one, in[i].one});
        add_term({acc.zero, in[i].zero});
        emit_iff_or_of_ands(nxt.zero);
        acc = nxt;
      }
      break;
    }
    case GateType::kMux2: {
      // Consensus form matches eval_gate: the output is definite when
      // the select is definite, or when both data inputs agree on a
      // definite value under an X select.
      const RailPair s = in[0], d0 = in[1], d1 = in[2];
      add_term({s.zero, d0.one});
      add_term({s.one, d1.one});
      add_term({d0.one, d1.one});
      emit_iff_or_of_ands(out.one);
      add_term({s.zero, d0.zero});
      add_term({s.one, d1.zero});
      add_term({d0.zero, d1.zero});
      emit_iff_or_of_ands(out.zero);
      break;
    }
    default:
      OCC_CHECK(false, "gate type has no CNF lowering");
  }
}

bool CnfLowering::lower_fault(const UnrolledModel& um,
                              const UnrolledFault& uf) {
  begin(um);
  const Netlist& nl = um.comb();
  const size_t n = nl.size();

  // Transitive fanout cone of the fault sites: only these gates can
  // differ between the two machines.
  in_cone_.assign(n, 0);
  stack_.clear();
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    if (!in_cone_[site]) {
      in_cone_[site] = 1;
      stack_.push_back(site);
    }
  }
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (GateId f : nl.gate(g).fanout) {
      if (!in_cone_[f]) {
        in_cone_[f] = 1;
        stack_.push_back(f);
      }
    }
  }
  // Live gates: cone gates that reach an observation inside the cone.
  // Only they can carry a difference that matters, so only they get a
  // faulty copy and a difference variable. Reverse topological order
  // finalizes every fanout before its driver. A live gate's cone fanins
  // are live too (it is their live fanout), so the faulty copy never
  // reads a gate outside the live cone.
  is_obs_.assign(n, 0);
  live_.assign(n, 0);
  for (GateId o : um.observations()) {
    is_obs_[o] = 1;
    live_[o] = in_cone_[o];
  }
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    if (!in_cone_[g] || live_[g]) continue;
    for (GateId f : nl.gate(g).fanout) {
      if (live_[f]) {
        live_[g] = 1;
        break;
      }
    }
  }
  bool any_live_site = false;
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    any_live_site = any_live_site || live_[site] != 0;
  }
  if (!any_live_site) return false;  // no observation point in the cone

  // The support's good machine: the transitive fanin of the live cone
  // and of the launch-constraint gates.
  for (GateId g = 0; g < n; ++g) {
    if (live_[g]) {
      lower_[g] = 1;
      stack_.push_back(g);
    }
  }
  for (const auto& [g, val] : uf.constraints) {
    (void)val;
    if (!lower_[g]) {
      lower_[g] = 1;
      stack_.push_back(g);
    }
  }
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (GateId f : nl.gate(g).fanin) {
      if (!lower_[f]) {
        lower_[f] = 1;
        stack_.push_back(f);
      }
    }
  }
  emit_good_machine();

  const auto stem_forced = [&](GateId g) {
    for (const auto& [site, pin] : uf.sites) {
      if (site == g && pin == kOutputPin) return true;
    }
    return false;
  };
  const auto branch_pin = [&](GateId g) -> int {
    for (const auto& [site, pin] : uf.sites) {
      if (site == g && pin != kOutputPin) return pin;
    }
    return -1;
  };

  // Faulty rails first, then difference variables (both by ascending
  // gate id), then clauses in the same order, so the numbering is a
  // pure function of the instance. frail_/diff_ entries are written for
  // every live gate before any is read, so stale entries of earlier
  // lowerings are never seen.
  frail_.resize(n);
  diff_.resize(n);
  for (GateId g = 0; g < n; ++g) {
    if (live_[g]) frail_[g] = {mk_lit(cnf_.new_var()), mk_lit(cnf_.new_var())};
  }
  for (GateId g = 0; g < n; ++g) {
    if (live_[g]) diff_[g] = mk_lit(cnf_.new_var());
  }
  for (GateId g = 0; g < n; ++g) {
    if (!live_[g]) continue;
    const RailPair out = frail_[g];
    if (stem_forced(g)) {
      // Output stem stuck at the forced value in the faulty machine.
      cnf_.add_unit(uf.forced_value ? out.one : out.zero);
      cnf_.add_unit(lit_neg(uf.forced_value ? out.zero : out.one));
      continue;
    }
    const Gate& gate = nl.gate(g);
    in_.clear();
    for (GateId f : gate.fanin) {
      OCC_DCHECK(!in_cone_[f] || live_[f]);
      in_.push_back(live_[f] ? frail_[f] : good(f));
    }
    const int bp = branch_pin(g);
    if (bp >= 0) in_[static_cast<size_t>(bp)] = const_rails(uf.forced_value);
    emit_gate(gate.type, out, in_);
  }

  // Launch constraints bind the good machine to a definite value.
  for (const auto& [g, val] : uf.constraints) {
    cnf_.add_unit(val ? good(g).one : good(g).zero);
  }

  // Detection as a D-chain (Larrabee's active clauses): d_g says gate g
  // differs definitely, a live non-observation gate that differs passes
  // the difference to some live fanout, and some site starts a chain.
  // Every chain ends at an observation, so a model detects. Conversely
  // a detection has such a chain: 3-valued evaluation is monotone, so a
  // non-site gate that differs definitely has a fanin that does (see
  // docs/ARCHITECTURE.md "The SAT backend").
  for (GateId g = 0; g < n; ++g) {
    if (!live_[g]) continue;
    const Lit d = diff_[g];
    const RailPair gr = good(g);
    const RailPair fr = frail_[g];
    // d -> (good 1 and faulty 0) or (good 0 and faulty 1).
    cnf_.add_ternary(lit_neg(d), gr.one, gr.zero);
    cnf_.add_ternary(lit_neg(d), fr.one, fr.zero);
    cnf_.add_ternary(lit_neg(d), gr.one, fr.one);
    cnf_.add_ternary(lit_neg(d), gr.zero, fr.zero);
    if (!is_obs_[g]) {
      const size_t start = cnf_.lits.size();
      cnf_.lits.push_back(lit_neg(d));
      for (GateId f : nl.gate(g).fanout) {
        if (live_[f]) cnf_.lits.push_back(diff_[f]);
      }
      // A gate feeding two pins of one fanout lists it twice.
      const auto tail =
          cnf_.lits.begin() + static_cast<std::ptrdiff_t>(start + 1);
      std::sort(tail, cnf_.lits.end());
      cnf_.lits.erase(std::unique(tail, cnf_.lits.end()), cnf_.lits.end());
      cnf_.end_clause();
    }
  }
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    if (live_[site]) cnf_.lits.push_back(diff_[site]);
  }
  cnf_.end_clause();
  return true;
}

std::vector<V3> CnfLowering::extract_cube(
    const std::vector<uint8_t>& model) const {
  const auto& vars = um_->var_gates();
  std::vector<V3> cube(vars.size(), V3::kX);
  for (size_t i = 0; i < vars.size(); ++i) {
    const GateId g = vars[i];
    if (!lowered(g)) continue;
    const RailPair r = good(g);
    cube[i] = model[lit_var(r.one)] != 0    ? V3::k1
              : model[lit_var(r.zero)] != 0 ? V3::k0
                                            : V3::kX;
  }
  return cube;
}

}  // namespace sat
}  // namespace occ
