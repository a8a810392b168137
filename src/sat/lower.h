// Dual-rail CNF lowering of an UnrolledModel: the good machine alone
// (the lowering parity tests), or the good/faulty miter of one fault
// instance over that instance's support (what the SAT probe solves).
//
// Each lowered comb-model gate gets two rails, "g is 1" and "g is 0";
// both-false encodes X, both-true is excluded. Model variables (PI/load
// gates) carry exactly-one clauses, X sources pin both rails false, so
// a SAT model is exactly a full 01 assignment of the lowered PODEM
// variables plus the 3-valued simulation it implies. Every gate
// template is two-sided (value rail <=> disjunction of minterm
// conjunctions over fanin rails), which makes plain unit propagation
// complete for forward evaluation under a full input assignment -- the
// property the lowering parity test checks against UnrolledModel
// simulation.
//
// A miter lowers only the instance's support: the live fault cone --
// cone gates that reach an observation inside the cone -- in both
// machines, and the good machine over the transitive fanin of that cone
// and of the launch-constraint gates. Nothing outside the support can
// reach a clause about the cone or the constraints, and every gate
// template is a total function of its fanins, so any model of the
// support formula extends to the whole model: the restricted miter is
// equisatisfiable with the full one (docs/ARCHITECTURE.md "The SAT
// probe").
//
// Variable numbering is a pure function of the lowered gate set and the
// fault-instance content: variable 0 is constant true; good rails by
// ascending gate id over the lowered gates (the k-th gets 1+2k, 2+2k);
// good-machine XOR-chain auxiliaries in gate order; then faulty rails
// and difference variables of the live cone, both by ascending gate id;
// then faulty XOR auxiliaries. Identical faults lower to byte-identical
// DIMACS.
//
// Detection is a D-chain (Larrabee's "active" clauses): each live cone
// gate gets a difference variable d_g that forces its good and faulty
// rails definite and opposite; a live non-observation gate with d_g set
// passes the difference to some live fanout, and some site starts a
// chain. An instance blocked at a dominator is then refuted by unit
// propagation instead of a proof that the two cone copies agree.
#pragma once

#include <cstdint>
#include <initializer_list>
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

/// Lowers one formula at a time into cnf(). The object is reusable
/// scratch: every lowering starts from an empty formula and keeps the
/// buffers' capacity, so the result never depends on what it lowered
/// before.
class CnfLowering {
 public:
  /// Lowers the good machine of every gate of `um.comb()`.
  void lower_good_machine(const UnrolledModel& um);

  /// Lowers the miter of one fault instance over its support (see the
  /// file comment): faulty rails for the live fault cone, stuck forcing
  /// at the sites, launch constraints on the good machine, and the
  /// D-chain from a site to an observation that differs definitely
  /// between the copies. Returns false -- leaving cnf() empty -- when
  /// no observation lies in the fault cone (the instance is trivially
  /// undetectable).
  bool lower_fault(const UnrolledModel& um, const UnrolledFault& uf);

  const Cnf& cnf() const { return cnf_; }

  /// Good-machine rails of comb gate `g`, which the current formula
  /// must lower.
  RailPair good(GateId g) const {
    return {mk_lit(1 + 2 * slot_[g]), mk_lit(2 + 2 * slot_[g])};
  }

  /// Maps a solver model of the current formula back to a PODEM cube:
  /// one V3 per model variable, aligned with model().var_gates() -- the
  /// model's value on every variable the formula lowers, X on every
  /// other one.
  std::vector<V3> extract_cube(const std::vector<uint8_t>& model) const;

 private:
  static constexpr uint32_t kNotLowered = 0xFFFFFFFFu;

  bool lowered(GateId g) const { return slot_[g] != kNotLowered; }
  // Starts a formula over `um`: resets the per-gate scratch.
  void begin(const UnrolledModel& um);
  // Numbers the gates marked in lower_ (ascending id) and emits their
  // good-machine clauses.
  void emit_good_machine();
  // out-rail <=> OR over the terms of the AND of each term's literals.
  // Term t is term_lits_[term_ends_[t-1], term_ends_[t]).
  void emit_iff_or_of_ands(Lit out);
  void add_term(std::initializer_list<Lit> t);
  // Emits the two-sided template of `type` computing `out` from `in`.
  void emit_gate(GateType type, RailPair out, const std::vector<RailPair>& in);
  RailPair const_rails(bool value) const {
    // Variable 0 is forced true, so its literal/negation act as the
    // definite-1 / definite-0 rails of a constant.
    return value ? RailPair{mk_lit(0), mk_lit(0, true)}
                 : RailPair{mk_lit(0, true), mk_lit(0)};
  }

  const UnrolledModel* um_ = nullptr;
  Cnf cnf_;
  // Per comb gate: position among the lowered gates, or kNotLowered.
  std::vector<uint32_t> slot_;
  std::vector<GateId> lowered_;  // lowered gates, ascending id
  // Per comb gate scratch of lower_fault().
  std::vector<uint8_t> lower_;    // in the support
  std::vector<uint8_t> in_cone_;  // in the sites' fanout cone
  std::vector<uint8_t> live_;     // cone gate reaching an observation
  std::vector<uint8_t> is_obs_;
  std::vector<RailPair> frail_;   // faulty rails of live gates
  std::vector<Lit> diff_;         // difference variable of live gates
  std::vector<GateId> stack_;
  // Scratch of emit_gate()/emit_iff_or_of_ands().
  std::vector<RailPair> in_;
  std::vector<Lit> term_lits_;
  std::vector<uint32_t> term_ends_;
  std::vector<uint32_t> pick_;
};

}  // namespace sat
}  // namespace occ
