// CNF core for the SAT-based ATPG backend: literals, clause storage and
// the DIMACS writer used by `occ sat-export`.
//
// Variables are dense 0-based indices; a literal packs (variable,
// polarity) MiniSat-style as var*2+sign, so watch lists and assignment
// arrays index directly by literal. The DIMACS writer shifts to the
// 1-based external convention.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace occ {
namespace sat {

/// Dense 0-based propositional variable index.
using Var = uint32_t;

/// Packed literal: var*2 (positive) or var*2+1 (negated).
using Lit = uint32_t;

inline constexpr Lit kLitUndef = 0xFFFFFFFFu;

/// Builds the positive (neg=false) or negated literal of `v`.
inline constexpr Lit mk_lit(Var v, bool neg = false) {
  return (v << 1) | static_cast<Lit>(neg);
}
/// The variable of a literal.
inline constexpr Var lit_var(Lit l) { return l >> 1; }
/// True for negated literals.
inline constexpr bool lit_sign(Lit l) { return (l & 1) != 0; }
/// The opposite-polarity literal.
inline constexpr Lit lit_neg(Lit l) { return l ^ 1; }

/// A CNF formula under construction: a variable counter plus a flat
/// clause store (every clause's literals back to back, with one end
/// offset per clause), so building a formula allocates per buffer
/// growth, never per clause. Clause order and variable numbering are
/// part of the lowering's determinism contract (identical faults must
/// produce byte-identical DIMACS), so nothing here reorders or
/// simplifies.
struct Cnf {
  uint32_t num_vars = 0;
  std::vector<Lit> lits;         ///< all clauses' literals, in order
  std::vector<uint32_t> ends;    ///< clause i is lits[ends[i-1], ends[i])

  /// Allocates a fresh variable.
  Var new_var() { return num_vars++; }

  size_t num_clauses() const { return ends.size(); }
  std::span<const Lit> clause(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {lits.data() + begin, ends[i] - begin};
  }

  /// Appends one clause (no sorting, no duplicate removal).
  void add_clause(std::span<const Lit> c) {
    lits.insert(lits.end(), c.begin(), c.end());
    end_clause();
  }
  void add_unit(Lit a) {
    lits.push_back(a);
    end_clause();
  }
  void add_binary(Lit a, Lit b) {
    lits.push_back(a);
    lits.push_back(b);
    end_clause();
  }
  void add_ternary(Lit a, Lit b, Lit c) {
    lits.push_back(a);
    lits.push_back(b);
    lits.push_back(c);
    end_clause();
  }
  /// Closes the clause made of the literals pushed onto `lits` since
  /// the previous clause ended.
  void end_clause() { ends.push_back(static_cast<uint32_t>(lits.size())); }

  /// Empties the formula, keeping the buffers' capacity.
  void clear() {
    num_vars = 0;
    lits.clear();
    ends.clear();
  }

  /// Total literal occurrences (for reporting).
  size_t literal_count() const { return lits.size(); }

  /// Writes the formula in DIMACS CNF format, preceded by `c` comment
  /// lines (one per entry, without the leading "c ").
  void write_dimacs(std::ostream& os,
                    const std::vector<std::string>& comments = {}) const;
};

}  // namespace sat
}  // namespace occ
