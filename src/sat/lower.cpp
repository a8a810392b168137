#include "sat/lower.h"

#include <algorithm>

#include "netlist/library.h"
#include "util/check.h"

namespace occ {
namespace sat {

CnfLowering::CnfLowering(const UnrolledModel& um) : um_(&um) {
  const Netlist& nl = um.comb();
  const size_t n = nl.size();
  cnf_.num_vars = static_cast<uint32_t>(1 + 2 * n);
  cnf_.add_unit(mk_lit(0));  // the constant-true anchor variable
  is_model_var_.assign(n, 0);
  for (GateId v : um.var_gates()) is_model_var_[v] = 1;
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    const RailPair out = good(g);
    switch (gate.type) {
      case GateType::kInput:
        OCC_CHECK(is_model_var_[g],
                  "unrolled model input is not a PODEM variable");
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
      default: {
        std::vector<RailPair> in;
        in.reserve(gate.fanin.size());
        for (GateId f : gate.fanin) in.push_back(good(f));
        emit_gate(gate.type, out, in);
        break;
      }
    }
  }
}

void CnfLowering::emit_clause(std::vector<Lit> c) {
  if (guard_ != kLitUndef) c.push_back(guard_);
  cnf_.add_clause(std::move(c));
}

void CnfLowering::emit_unit(Lit a) {
  if (guard_ != kLitUndef) {
    cnf_.add_binary(a, guard_);
  } else {
    cnf_.add_unit(a);
  }
}

void CnfLowering::emit_binary(Lit a, Lit b) {
  if (guard_ != kLitUndef) {
    cnf_.add_ternary(a, b, guard_);
  } else {
    cnf_.add_binary(a, b);
  }
}

void CnfLowering::emit_ternary(Lit a, Lit b, Lit c) {
  if (guard_ != kLitUndef) {
    cnf_.add_clause({a, b, c, guard_});
  } else {
    cnf_.add_ternary(a, b, c);
  }
}

void CnfLowering::add_iff_or_of_ands(
    Lit out, const std::vector<std::vector<Lit>>& terms) {
  // Forward: each fully-true term forces `out`.
  for (const auto& t : terms) {
    std::vector<Lit> c;
    c.reserve(t.size() + 1);
    c.push_back(out);
    for (Lit l : t) c.push_back(lit_neg(l));
    emit_clause(std::move(c));
  }
  // Backward: `out` forces some term; expand the cartesian product that
  // picks one literal per term. Duplicate picks (shared literals across
  // terms, e.g. the MUX consensus term) collapse; complementary picks
  // cannot arise because rails of one signal are distinct variables.
  std::vector<size_t> idx(terms.size(), 0);
  for (;;) {
    std::vector<Lit> c;
    c.reserve(terms.size() + 1);
    c.push_back(lit_neg(out));
    for (size_t i = 0; i < terms.size(); ++i) c.push_back(terms[i][idx[i]]);
    std::sort(c.begin() + 1, c.end());
    c.erase(std::unique(c.begin() + 1, c.end()), c.end());
    emit_clause(std::move(c));
    size_t i = 0;
    while (i < terms.size() && ++idx[i] == terms[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == terms.size()) break;
  }
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
  emit_binary(lit_neg(out.one), lit_neg(out.zero));
  switch (type) {
    case GateType::kBuf:
    case GateType::kOutput:
      add_iff_or_of_ands(out.one, {{in[0].one}});
      add_iff_or_of_ands(out.zero, {{in[0].zero}});
      break;
    case GateType::kAnd: {
      std::vector<Lit> all_one;
      std::vector<std::vector<Lit>> any_zero;
      for (const RailPair& p : in) {
        all_one.push_back(p.one);
        any_zero.push_back({p.zero});
      }
      add_iff_or_of_ands(out.one, {all_one});
      add_iff_or_of_ands(out.zero, any_zero);
      break;
    }
    case GateType::kOr: {
      std::vector<std::vector<Lit>> any_one;
      std::vector<Lit> all_zero;
      for (const RailPair& p : in) {
        any_one.push_back({p.one});
        all_zero.push_back(p.zero);
      }
      add_iff_or_of_ands(out.one, any_one);
      add_iff_or_of_ands(out.zero, {all_zero});
      break;
    }
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
          emit_binary(lit_neg(nxt.one), lit_neg(nxt.zero));
        }
        add_iff_or_of_ands(
            nxt.one, {{acc.one, in[i].zero}, {acc.zero, in[i].one}});
        add_iff_or_of_ands(
            nxt.zero, {{acc.one, in[i].one}, {acc.zero, in[i].zero}});
        acc = nxt;
      }
      break;
    }
    case GateType::kMux2: {
      // Consensus form matches eval_gate: the output is definite when
      // the select is definite, or when both data inputs agree on a
      // definite value under an X select.
      const RailPair s = in[0], d0 = in[1], d1 = in[2];
      add_iff_or_of_ands(out.one, {{s.zero, d0.one},
                                   {s.one, d1.one},
                                   {d0.one, d1.one}});
      add_iff_or_of_ands(out.zero, {{s.zero, d0.zero},
                                    {s.one, d1.zero},
                                    {d0.zero, d1.zero}});
      break;
    }
    default:
      OCC_CHECK(false, "gate type has no CNF lowering");
  }
}

bool CnfLowering::add_fault(const UnrolledFault& uf) {
  return emit_fault(uf, nullptr);
}

bool CnfLowering::add_fault_gated(const UnrolledFault& uf, Lit* activation) {
  *activation = kLitUndef;
  return emit_fault(uf, activation);
}

bool CnfLowering::emit_fault(const UnrolledFault& uf, Lit* activation) {
  const Netlist& nl = um_->comb();
  const size_t n = nl.size();

  // Transitive fanout cone of the fault sites: only these gates need a
  // faulty copy; everything else aliases the good machine.
  std::vector<uint8_t> in_cone(n, 0);
  std::vector<GateId> stack;
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    if (!in_cone[site]) {
      in_cone[site] = 1;
      stack.push_back(site);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : nl.gate(g).fanout) {
      if (!in_cone[f]) {
        in_cone[f] = 1;
        stack.push_back(f);
      }
    }
  }
  // Live gates: cone gates that reach an observation inside the cone.
  // Only they can carry a difference that matters, so only they get a
  // difference variable. Reverse topological order finalizes every
  // fanout before its driver.
  std::vector<uint8_t> is_obs(n, 0);
  std::vector<uint8_t> live(n, 0);
  for (GateId o : um_->observations()) {
    is_obs[o] = 1;
    live[o] = in_cone[o];
  }
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    if (!in_cone[g] || live[g]) continue;
    for (GateId f : nl.gate(g).fanout) {
      if (live[f]) {
        live[g] = 1;
        break;
      }
    }
  }
  bool any_live_site = false;
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    any_live_site = any_live_site || live[site] != 0;
  }
  if (!any_live_site) return false;  // no observation point in the cone

  // Gated form: the activation variable is allocated first (before any
  // per-instance rail), and its negation rides along on every clause
  // emitted below.
  if (activation != nullptr) {
    *activation = mk_lit(cnf_.new_var());
    guard_ = lit_neg(*activation);
  }

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
  // pure function of the instance.
  std::vector<RailPair> frail(n, RailPair{kLitUndef, kLitUndef});
  for (GateId g = 0; g < n; ++g) {
    if (in_cone[g]) frail[g] = {mk_lit(cnf_.new_var()), mk_lit(cnf_.new_var())};
  }
  std::vector<Lit> diff(n, kLitUndef);
  for (GateId g = 0; g < n; ++g) {
    if (live[g]) diff[g] = mk_lit(cnf_.new_var());
  }
  const auto fan_rails = [&](GateId f) {
    return in_cone[f] ? frail[f] : good(f);
  };
  for (GateId g = 0; g < n; ++g) {
    if (!in_cone[g]) continue;
    const RailPair out = frail[g];
    if (stem_forced(g)) {
      // Output stem stuck at the forced value in the faulty machine.
      emit_unit(uf.forced_value ? out.one : out.zero);
      emit_unit(lit_neg(uf.forced_value ? out.zero : out.one));
      continue;
    }
    const Gate& gate = nl.gate(g);
    std::vector<RailPair> in;
    in.reserve(gate.fanin.size());
    for (GateId f : gate.fanin) in.push_back(fan_rails(f));
    const int bp = branch_pin(g);
    if (bp >= 0) in[static_cast<size_t>(bp)] = const_rails(uf.forced_value);
    emit_gate(gate.type, out, in);
  }

  // Launch constraints bind the good machine to a definite value.
  for (const auto& [g, val] : uf.constraints) {
    emit_unit(val ? good(g).one : good(g).zero);
  }

  // Detection as a D-chain (Larrabee's active clauses): d_g says gate g
  // differs definitely, a live non-observation gate that differs passes
  // the difference to some live fanout, and some site starts a chain.
  // Every chain ends at an observation, so a model detects. Conversely
  // a detection has such a chain: 3-valued evaluation is monotone, so a
  // non-site gate that differs definitely has a fanin that does (see
  // docs/ARCHITECTURE.md "The SAT backend").
  for (GateId g = 0; g < n; ++g) {
    if (!live[g]) continue;
    const Lit d = diff[g];
    const RailPair gr = good(g);
    const RailPair fr = frail[g];
    // d -> (good 1 and faulty 0) or (good 0 and faulty 1).
    emit_ternary(lit_neg(d), gr.one, gr.zero);
    emit_ternary(lit_neg(d), fr.one, fr.zero);
    emit_ternary(lit_neg(d), gr.one, fr.one);
    emit_ternary(lit_neg(d), gr.zero, fr.zero);
    if (!is_obs[g]) {
      std::vector<Lit> chain{lit_neg(d)};
      for (GateId f : nl.gate(g).fanout) {
        if (live[f]) chain.push_back(diff[f]);
      }
      // A gate feeding two pins of one fanout lists it twice.
      std::sort(chain.begin() + 1, chain.end());
      chain.erase(std::unique(chain.begin() + 1, chain.end()), chain.end());
      emit_clause(std::move(chain));
    }
  }
  std::vector<Lit> root;
  for (const auto& [site, pin] : uf.sites) {
    (void)pin;
    if (live[site]) root.push_back(diff[site]);
  }
  emit_clause(std::move(root));
  guard_ = kLitUndef;
  return true;
}

std::vector<V3> CnfLowering::extract_cube(
    const std::vector<uint8_t>& model) const {
  const auto& vars = um_->var_gates();
  std::vector<V3> cube(vars.size(), V3::kX);
  for (size_t i = 0; i < vars.size(); ++i) {
    const GateId g = vars[i];
    const bool one = model[1 + 2 * g] != 0;
    const bool zero = model[2 + 2 * g] != 0;
    cube[i] = one ? V3::k1 : zero ? V3::k0 : V3::kX;
  }
  return cube;
}

}  // namespace sat
}  // namespace occ
