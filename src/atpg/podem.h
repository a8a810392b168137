// PODEM test generation on an unrolled combinational model.
//
// Classic PODEM (Goel) with:
//   * good/faulty 3-valued value pairs (equivalent to the 5-valued
//     D-calculus: D = good 1 / faulty 0, D' = good 0 / faulty 1);
//   * decisions only on model variables (PI replicas and scan loads);
//   * event-driven implication with a trail for O(touched) backtracking;
//   * multi-site fault injection (one stuck-at replica per time frame);
//   * side justification constraints (the transition-launch condition
//     "site carries its initial value in frame k-1");
//   * X-path pruning and backtrace guided by variable reachability;
//   * fault-cone-restricted X-path checks.
//
// Search order: the objective extends the deepest D-frontier gate
// (lower gate id breaks ties) through its first controllable X input,
// and backtrace descends through the first controllable X input in pin
// order. One search heuristic (docs/ARCHITECTURE.md "PODEM search
// heuristics"): the dominator early abort -- an instance none of whose
// sites has an unblocked path through its own gate and its dominator
// chain to an observation is untestable before any search.
//
// Outcomes: detected (assignment() holds the test cube), untestable
// (search space exhausted -- untestable *under this capture procedure*),
// or aborted (backtrack limit).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/unroll.h"
#include "netlist/library.h"

namespace occ {

class Podem {
 public:
  enum class Outcome : uint8_t { kDetected, kUntestable, kAborted };

  struct Stats {
    uint64_t runs = 0;
    uint64_t decisions = 0;
    uint64_t backtracks = 0;
    uint64_t implications = 0;
    /// Instances classified untestable by the dominator early abort
    /// before any search.
    uint64_t dominator_prunes = 0;
    /// Always 0: no decision is refuted statically and no run is seeded
    /// from a cached cube any more. Kept because the occbench driver
    /// reports them.
    uint64_t implication_hits = 0;
    uint64_t cache_tries = 0;
    uint64_t cache_hits = 0;

    Stats& operator+=(const Stats& o) {
      runs += o.runs;
      decisions += o.decisions;
      backtracks += o.backtracks;
      implications += o.implications;
      implication_hits += o.implication_hits;
      dominator_prunes += o.dominator_prunes;
      cache_tries += o.cache_tries;
      cache_hits += o.cache_hits;
      return *this;
    }
    // Snapshot delta (b is an earlier snapshot of the same counters).
    friend Stats operator-(Stats a, const Stats& b) {
      a.runs -= b.runs;
      a.decisions -= b.decisions;
      a.backtracks -= b.backtracks;
      a.implications -= b.implications;
      a.implication_hits -= b.implication_hits;
      a.dominator_prunes -= b.dominator_prunes;
      a.cache_tries -= b.cache_tries;
      a.cache_hits -= b.cache_hits;
      return a;
    }
  };

  /// A run aborts after `backtrack_limit` backtracks.
  explicit Podem(const UnrolledModel& model, uint32_t backtrack_limit = 300);

  /// Attempts to detect one compiled fault. kUntestable is a proof; a
  /// search that hits the backtrack limit, or had to cut a subtree it
  /// could not refute (a failed backtrace), returns kAborted. The engine
  /// may call run() repeatedly; internal state resets automatically, so
  /// an outcome depends only on the model and the fault.
  Outcome run(const UnrolledFault& fault);

  /// Test cube after a kDetected outcome: value per model variable
  /// (aligned with model.var_gates()); X = unassigned (free for fill).
  const std::vector<V3>& assignment() const { return cube_; }

  const Stats& stats() const { return stats_; }

 private:
  struct TrailEntry {
    GateId gate;
    V3 old_good;
    V3 old_faulty;
  };
  struct Decision {
    uint32_t var;       // index into model var list
    bool tried_both;
    size_t trail_mark;
  };
  struct FoEdge {
    GateId id;       // fanout gate
    int32_t level;   // its combinational level (bucket index)
  };

  V3 eval_good(GateId g) const;
  V3 eval_faulty(GateId g) const;
  bool is_d(GateId g) const {
    return good_[g] != V3::kX && faulty_[g] != V3::kX &&
           good_[g] != faulty_[g];
  }
  bool in_cone(GateId g) const { return cone_mark_[g] == cone_epoch_; }

  void set_value(GateId g, V3 gv, V3 fv);
  void imply();
  void enqueue_fanouts(GateId g);
  bool constraints_ok_or_pending(bool* all_satisfied) const;
  bool fault_activatable() const;
  bool detected() const;
  bool xpath_exists() const;

  // Objective/backtrace. Returns false when no objective is available
  // (conflict in the current subtree).
  bool pick_objective(GateId* net, bool* val);
  bool backtrace(GateId net, bool val, uint32_t* var, bool* var_val);

  void assign_var(uint32_t var, bool val);
  void undo_to(size_t mark);

  // Heuristics.
  void mark_cone(const UnrolledFault& fault);
  bool site_blocked_statically(GateId site) const;
  bool pin_ignored_statically(GateId site, uint32_t pin) const;
  // The data pin (1 or 2) an out-of-cone constant select of MUX `mux`
  // picks, or 0 when the select is X or inside the fault cone.
  uint32_t picked_mux_pin(GateId mux) const;

  const UnrolledModel* model_;
  const Netlist* comb_;
  uint32_t backtrack_limit_;
  Stats stats_;

  // Flat propagation view of the combinational model (ctor-built):
  // per-gate type/level plus CSR fanin/fanout edges, all contiguous,
  // so the implication hot path never chases the pointer-rich Gate
  // objects. Pure representation change -- values and visit order
  // match the Gate-based loops exactly.
  std::vector<GateType> type_;
  std::vector<int32_t> level_;
  std::vector<uint32_t> fi_off_;  // size()+1 offsets into fi_
  std::vector<GateId> fi_;        // fanins, pin order preserved
  std::vector<uint32_t> fo_off_;  // size()+1 offsets into fo_
  std::vector<FoEdge> fo_;        // fanouts, netlist order preserved

  std::vector<V3> good_;
  std::vector<V3> faulty_;
  std::vector<V3> baseline_;      // good values with all vars X
  std::vector<V3> cube_;          // per var
  std::vector<int32_t> var_of_;   // gate -> var index or -1
  std::vector<bool> controllable_;  // gate depends on >= 1 variable
  std::vector<bool> is_obs_;
  std::vector<bool> reach_obs_;   // gate reaches >= 1 observation

  // Immediate dominator toward the observations over the fanout DAG:
  // idom_[g] is the first gate every g->observation path passes through
  // after g, comb_->size() the virtual sink fed by every observation,
  // -1 unreachable. idepth_ is the chain depth used for
  // nearest-common-ancestor walks.
  std::vector<int32_t> idom_;
  std::vector<uint32_t> idepth_;

  // Fault under test.
  const UnrolledFault* fault_ = nullptr;
  std::vector<int8_t> stem_force_;   // -1 none, else forced value (0/1)
  std::vector<int16_t> branch_pin_;  // -1 none, else forced pin index

  // Static fanout cone of the current fault's sites: the only region
  // where the faulty machine can differ from the good one, so faulty
  // evaluation is skipped outside it (outcome-identical).
  std::vector<uint32_t> cone_mark_;
  uint32_t cone_epoch_ = 0;
  std::vector<GateId> cone_stack_;

  // Implication worklist (level buckets) + trail. The dirty-level
  // bounds let imply() sweep only the touched bucket range instead of
  // every level (fanout levels are strictly increasing, so the sweep
  // only ever extends forward).
  std::vector<std::vector<GateId>> buckets_;
  int32_t bkt_lo_ = INT32_MAX;
  int32_t bkt_hi_ = -1;
  std::vector<uint32_t> queued_;
  uint32_t epoch_ = 0;
  std::vector<TrailEntry> trail_;
  std::vector<Decision> stack_;

  // Monotone candidate lists for frontier / D-net scanning (per run).
  std::vector<GateId> dnet_cand_;
  std::vector<GateId> frontier_cand_;
  std::vector<uint32_t> cand_mark_;  // epoch per run to dedup
  uint32_t run_id_ = 0;

  // Scratch for X-path BFS and the objective frontier sort.
  mutable std::vector<uint32_t> xpath_mark_;
  mutable uint32_t xpath_epoch_ = 0;
  mutable std::vector<GateId> xpath_q_;
  std::vector<GateId> frontier_buf_;
};

}  // namespace occ
