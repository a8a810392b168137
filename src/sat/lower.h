// Dual-rail CNF lowering of an UnrolledModel, plus the good/faulty
// miter for one fault instance.
//
// Each comb-model gate g gets two rails: variable 1+2g ("g is 1") and
// 2+2g ("g is 0"); both-false encodes X, both-true is excluded. Model
// variables (PI/load gates) carry exactly-one clauses, X sources pin
// both rails false, so a SAT model is exactly a full 01 assignment of
// the PODEM variables plus the 3-valued simulation it implies. Every
// gate template is two-sided (value rail <=> disjunction of minterm
// conjunctions over fanin rails), which makes plain unit propagation
// complete for forward evaluation under a full input assignment -- the
// property the lowering parity test checks against UnrolledModel
// simulation.
//
// Variable numbering is a pure function of the comb model and the
// fault-instance content (variable 0 is constant true; gate rails by
// gate id; XOR-chain auxiliaries in gate order; faulty-cone rails, then
// difference variables, in ascending gate-id order), so identical
// faults lower to byte-identical DIMACS.
//
// Detection is a D-chain (Larrabee's "active" clauses): each live cone
// gate -- one reaching an observation inside the cone -- gets a
// difference variable d_g that forces its good and faulty rails
// definite and opposite; a live non-observation gate with d_g set
// passes the difference to some live fanout, and some site starts a
// chain. An instance blocked at a dominator is then refuted by unit
// propagation instead of a proof that the two cone copies agree.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/unroll.h"
#include "sat/cnf.h"

namespace occ {
namespace sat {

/// The (is-1, is-0) literal pair encoding one 3-valued signal.
struct RailPair {
  Lit one;
  Lit zero;
};

class CnfLowering {
 public:
  /// Lowers the good copy of `um.comb()` into cnf().
  explicit CnfLowering(const UnrolledModel& um);

  const UnrolledModel& model() const { return *um_; }
  const Cnf& cnf() const { return cnf_; }

  /// Rails of comb gate `g` in the good machine.
  RailPair good(GateId g) const {
    return {mk_lit(1 + 2 * g), mk_lit(2 + 2 * g)};
  }

  /// Appends the faulty-cone miter for one fault instance: faulty rails
  /// for the fanout cone of the sites, stuck forcing at the sites,
  /// launch constraints on the good machine, and the D-chain from a
  /// site to an observation that differs definitely between the copies.
  /// Returns false -- adding nothing -- when no observation lies in the
  /// fault cone (the instance is trivially undetectable).
  bool add_fault(const UnrolledFault& uf);

  /// The incremental variant of add_fault(): allocates a fresh
  /// activation variable, emits the same miter with the activation's
  /// negation appended to every clause (so the instance is vacuous
  /// unless its activation literal is assumed true), and reports the
  /// positive activation literal in *activation. The instance is solved
  /// under {*activation} and retired -- never re-lowered -- by adding
  /// the permanent unit clause lit_neg(*activation) to the solver once
  /// a verdict is reached. Returns false, adding nothing, when no
  /// observation lies in the fault cone.
  bool add_fault_gated(const UnrolledFault& uf, Lit* activation);

  /// Maps a solver model back to a PODEM cube: one V3 per model
  /// variable, aligned with model().var_gates().
  std::vector<V3> extract_cube(const std::vector<uint8_t>& model) const;

 private:
  // Emission helpers: forward to cnf_ unguarded, or append guard_ (the
  // negated activation literal of the gated fault under construction)
  // so per-fault clauses are vacuous unless activated. The unguarded
  // path is byte-identical to direct Cnf appends, preserving the DIMACS
  // determinism contract of add_fault().
  void emit_clause(std::vector<Lit> c);
  void emit_unit(Lit a);
  void emit_binary(Lit a, Lit b);
  void emit_ternary(Lit a, Lit b, Lit c);
  // Shared body of add_fault()/add_fault_gated(); `activation` selects
  // the gated form (allocated only once the cone is known observable).
  bool emit_fault(const UnrolledFault& uf, Lit* activation);
  // out-rail <=> OR over `terms` of the AND of each term's literals.
  void add_iff_or_of_ands(Lit out, const std::vector<std::vector<Lit>>& terms);
  // Emits the two-sided template of `type` computing `out` from `in`.
  void emit_gate(GateType type, RailPair out, const std::vector<RailPair>& in);
  RailPair const_rails(bool value) const {
    // Variable 0 is forced true, so its literal/negation act as the
    // definite-1 / definite-0 rails of a constant.
    return value ? RailPair{mk_lit(0), mk_lit(0, true)}
                 : RailPair{mk_lit(0, true), mk_lit(0)};
  }

  const UnrolledModel* um_;
  Cnf cnf_;
  std::vector<uint8_t> is_model_var_;  // per comb gate
  Lit guard_ = kLitUndef;  // appended to every clause while set
};

}  // namespace sat
}  // namespace occ
