// Parallel-pattern single-fault-propagation (PPSFP) fault simulator,
// driven by named capture procedures.
//
// One engine serves both fault models (Waicukauski-style):
//   * stuck-at: the fault is injected in every frame;
//   * transition: the fault is injected in frame k (as the stuck-at of
//     its initial value) for pattern slots where the fault-free machine
//     launches the required transition across an *at-speed* pulse pair
//     (k-1, k). Initialization frames are simulated fault-free -- the
//     standard broadside approximation.
//
// Observation points: scan-cell final state (unloaded after the last
// pulse) and primary outputs in frames whose CaptureCycle strobes them.
// Detection requires a known good/faulty disagreement; a disagreement
// involving X downgrades to "possibly detected".
//
// Propagation is cone-limited: differences against the stored
// good-machine frames propagate only through nets from which an
// observation point is still structurally reachable in the remaining
// frames (per-NCP masks, see sim/cone_program.h). A fault whose
// injection site is outside every frame's cone is dropped without
// propagating a single gate. The masks over-approximate sensitization,
// so every verdict equals full good/faulty simulation of the whole
// netlist (tests/test_cone.cpp pins per-fault detection masks against a
// brute-force reference simulator).
//
// Each frame's cone is lowered once per NCP into a dense replay program
// (sim/cone_program.h). A fault pass sweeps an active bitset over the
// program's cone-local dense ids and a write-through arena of 64-lane
// 01X words (Val64), never touching the global netlist.
//
// Slow-to-rise/slow-to-fall partners at the same site propagate in ONE
// overlay pass: a pattern lane launches at most one transition
// direction, so the two faults inject on disjoint lane sets, and both
// force the site to the complement of its good value on their lanes.
// The 64 PPSFP lanes never interact, so the combined difference word
// splits exactly back into per-fault detection masks (each fault's
// early-exit point is tracked per lane set). This roughly halves
// transition fault-sim work on top of the cone limiting.
//
// One batch is graded as a walk over simulation units: a unit is one
// fault or one STR/STF pair, listed in cone-locality order
// (fault/order.h). The good machine is simulated once per batch and is
// read-only while shards probe units; each shard owns only a Scratch
// (its write-through arenas, active bitset and carried state). Results
// are kept per unit and applied to the fault list by the calling thread
// afterwards, so every output is independent of the shard count.
//
// After warm-up (first batch of an NCP), detect_faults performs zero
// heap allocations at any shard count: every buffer is reused across
// batches. tests/test_cone_program.cpp pins this with a global
// allocation counter.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/clock_scheme.h"
#include "fault/fault_list.h"
#include "fsim/options.h"
#include "fsim/pattern.h"
#include "sim/cone_program.h"
#include "sim/cycle_sim.h"

namespace occ {

class ThreadPool;

/// Provider of frozen per-NCP cone artifacts shared across engines.
///
/// The observability masks (FrameObs) and compiled replay programs
/// (ConeProgram) of one (netlist, scheme) pair are pure read-only data
/// during simulation; only the per-shard scratch (overlay arenas,
/// active bitset) is mutable. An implementation -- occ::CompiledDesign
/// -- owns one immutable copy per capture procedure, so the engines of
/// every session over it stop rebuilding private copies. Accessors must
/// be thread-safe and must return artifacts identical to what a private
/// build would produce (the engines' bit-identity contract relies on
/// it).
class ConeArtifactSource {
 public:
  virtual ~ConeArtifactSource() = default;
  /// Frozen observability masks of capture procedure `ncp_index`.
  virtual const FrameObs& shared_frame_obs(size_t ncp_index) const = 0;
  /// Frozen compiled replay program of capture procedure `ncp_index`.
  virtual const ConeProgram& shared_cone_program(size_t ncp_index) const = 0;
};

/// Fault-free multi-frame simulation of one batch.
struct GoodFrames {
  /// frames[f][gate] = settled value in frame f.
  std::vector<std::vector<Val64>> frames;
  /// Flop state entering frame f (indexed like nl.dffs()).
  std::vector<std::vector<Val64>> state;
  /// Final flop state after the last pulse.
  std::vector<Val64> final_state;
};

/// Deterministic work done by fault propagation. Both counters are
/// independent of shard count and walk order: gate_evals counts gates
/// evaluated under the single-fault overlay, events_processed counts
/// difference events offered to the schedule (fanout activation
/// attempts, pre-dedup) -- the quantity the compiled replay programs
/// make cheap.
struct FsimWork {
  uint64_t gate_evals = 0;
  uint64_t events_processed = 0;

  FsimWork& operator+=(const FsimWork& o) {
    gate_evals += o.gate_evals;
    events_processed += o.events_processed;
    return *this;
  }
};

/// Statistics from one fault-sim invocation.
struct FsimStats {
  size_t faults_simulated = 0;
  size_t newly_detected = 0;
  size_t newly_possibly = 0;
  uint64_t gate_evals = 0;
  uint64_t events_processed = 0;

  /// Accumulates another invocation's stats (every field); the one
  /// place to extend when a counter is added, shared by all engines
  /// and stages so none of them drops a field.
  FsimStats& operator+=(const FsimStats& o) {
    faults_simulated += o.faults_simulated;
    newly_detected += o.newly_detected;
    newly_possibly += o.newly_possibly;
    gate_evals += o.gate_evals;
    events_processed += o.events_processed;
    return *this;
  }
};

/// True for statuses the simulator still grades. Aborted faults stay in
/// the simulation: ATPG gave up on targeting them, but any later pattern
/// may still detect them incidentally.
constexpr bool fsim_wants_simulation(FaultStatus fs) {
  return fs == FaultStatus::kUndetected ||
         fs == FaultStatus::kPossiblyDetected || fs == FaultStatus::kAborted;
}

/// Grades one packed batch, appending (fault index, batch slot) pairs to
/// its second argument when that is non-null.
using BatchGrader = std::function<FsimStats(
    const PatternBatch&, std::vector<std::pair<size_t, unsigned>>*)>;

/// The window contract of detect_faults(ps, first, n, ...), shared by
/// NcpFaultSim and ShardedFaultSim: packs maximal same-NCP runs of
/// patterns [first, first + n) into 64-lane batches, grades each with
/// `grade_batch` (fault dropping carries across the batches through the
/// fault list the grader marks) and maps detection slots back to
/// window-relative pattern indices.
FsimStats grade_window(const PatternSet& ps, size_t first, size_t n,
                       const Netlist& nl, const ClockingScheme& scheme,
                       std::vector<std::pair<size_t, unsigned>>* detections,
                       const BatchGrader& grade_batch);

class NcpFaultSim {
 public:
  /// `scan_en_pi` (optional): the scan-enable input; when the scheme
  /// freezes scan_en, that PI is forced to 0 in every capture frame
  /// regardless of pattern contents.
  /// `shared` (optional): frozen per-NCP observability masks and replay
  /// programs to consume instead of building private copies; must match
  /// (nl, scheme). Results are bit-identical either way -- the shared
  /// artifacts only skip redundant builds.
  NcpFaultSim(const Netlist& nl, const ClockingScheme& scheme,
              GateId scan_en_pi = kNoGate,
              std::shared_ptr<const ConeArtifactSource> shared = nullptr);

  const Netlist& netlist() const { return *nl_; }
  const ClockingScheme& scheme() const { return *scheme_; }

  /// Fault-free simulation of a packed batch. Also binds the batch's
  /// NCP cone artifacts (building this engine's private copies on first
  /// use when no shared source was given) and packs the good-machine
  /// frames into the dense arena layout. detect_faults(batch, ...)
  /// calls this itself; it stays public for the probe_fault flows.
  void simulate_good(const PatternBatch& batch);

  /// Good-machine final scan state / strobed PO values for slot `s` of
  /// the last simulated batch (expected responses for the ATE).
  std::vector<V3> expected_unload(unsigned slot) const;

  /// The canonical fault-simulation entry point: simulates the batch
  /// fault-free (simulate_good), then simulates all undetected faults
  /// of `fl` against it; detected faults are marked (fault dropping).
  /// Faults are walked in cone-locality order (fault/order.h) and the
  /// newly detected ones reported in fault-index order, so statuses,
  /// stats and `detections` are independent of the walk order.
  /// If `detections` is given, appends (fault index, detecting slot) for
  /// each newly hard-detected fault; the slot is the lowest-numbered live
  /// pattern that detects it (used for pattern-selection/compaction).
  /// This is the 1-shard case of the sharded form below.
  FsimStats detect_faults(
      const PatternBatch& batch, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr) {
    return detect_faults(batch, fl, detections, {&scratch_, 1}, nullptr);
  }

  /// Window form: simulates patterns [first, first + n) of `ps` -- any
  /// length, any mix of NCPs -- by packing maximal same-NCP runs into
  /// ceil(run / 64)-sweep batches internally; callers no longer hand-
  /// roll the 64-pattern chunking. Detection slots are relative to
  /// `first`. Fault dropping carries across the internal batches, so
  /// statuses are identical to any other split of the same window
  /// (counters, as always under dropping, depend on the batch
  /// boundaries -- which this form fixes canonically).
  FsimStats detect_faults(
      const PatternSet& ps, size_t first, size_t n, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// One shard's mutable probe state: the per-frame write-through
  /// arenas, the active bitset, the carried-state double buffer and the
  /// capture-candidate stamps. A scratch serves one engine, which
  /// primes it from the current good machine once per batch and sizes
  /// every buffer to its structural bound, so whichever units a shard
  /// claims, a warmed-up scratch never allocates.
  class Scratch {
   private:
    friend class NcpFaultSim;
    struct StateDiff {
      uint32_t dff_pos;  // index into nl.dffs()
      Val64 faulty;
    };
    // Batch (simulate_good count) the arenas were primed for.
    uint64_t batch = 0;
    // Write-through overlay arena, one per frame: primed with the
    // frame's good values, temporarily corrupted during a fault pass,
    // restored via `touched` afterwards. Keeping the arena always-good
    // between passes makes the operand gather a single contiguous load
    // (no stamp check, no good fallback), and makes `new == previous`
    // an exact skip condition.
    std::vector<std::vector<Val64>> frame_vals;
    std::vector<uint32_t> touched;  // dense ids to restore (dups fine)
    std::vector<uint64_t> active;   // active bitset words over dense ids
    // Carried state corruption double-buffer.
    std::vector<StateDiff> state_a, state_b;
    // Operand gather spill for gates with more than two fanins.
    std::vector<Val64> wide_ins;
    // Per-frame injection lane masks of the fault (and its partner),
    // computed in one pass over the good frames per simulate_sites call
    // -- the launch condition reads the same two good words for both
    // partners and for the union pre-check, so computing them once
    // halves the per-fault fixed cost.
    std::vector<uint64_t> inj_a, inj_b;
    // Capture candidates of the current frame, deduped by epoch stamp
    // (one epoch per frame pass).
    std::vector<uint32_t> cand_dffs;
    std::vector<uint32_t> cand_stamp;
    uint32_t epoch = 0;
    // Work of this shard's probes in the current detect_faults call.
    FsimWork work;
  };

  /// The one probe-and-merge walk behind every detect_faults form.
  /// Simulates the batch fault-free once, lists its live units (one
  /// pass over the statuses), then runs `shards.size()` shards: shard s
  /// probes with `shards[s]` and claims chunks of the cone-ordered unit
  /// list from a shared cursor. The calling thread applies the per-unit
  /// results afterwards. `pool` runs the shards (its shard count must
  /// equal shards.size()); null runs the one shard inline. Statuses,
  /// stats, work counters and `detections` are identical for every
  /// shard count.
  FsimStats detect_faults(const PatternBatch& batch, FaultList& fl,
                          std::vector<std::pair<size_t, unsigned>>* detections,
                          std::span<Scratch> shards, ThreadPool* pool);

  /// Detection masks (hard, possible) of one fault over `live_mask`.
  struct ProbeMasks {
    uint64_t hard = 0;
    uint64_t poss = 0;
  };

  /// Simulates one fault against the last simulate_good() batch without
  /// touching any fault list: returns the (hard, possible) detection
  /// masks over `live_mask` slots and accumulates work counters into
  /// `work`. Uses this engine's own scratch.
  std::pair<uint64_t, uint64_t> probe_fault(const Fault& f,
                                            uint64_t live_mask,
                                            FsimWork* work) {
    prime(scratch_);
    const ProbeMasks m =
        simulate_sites(scratch_, f, nullptr, live_mask, work).first;
    return {m.hard, m.poss};
  }

  /// Probes an STR/STF pair at the same (gate, pin) site in one overlay
  /// pass when their launch lanes are disjoint (automatic exact fallback
  /// to two solo passes otherwise). Results are identical to two
  /// probe_fault calls; only the work counters are smaller.
  std::pair<ProbeMasks, ProbeMasks> probe_fault_pair(const Fault& a,
                                                     const Fault& b,
                                                     uint64_t live_mask,
                                                     FsimWork* work) {
    prime(scratch_);
    return simulate_sites(scratch_, a, &b, live_mask, work);
  }

  /// Live-slot mask for a batch (count < 64 leaves the top slots dead).
  static uint64_t live_mask(const PatternBatch& batch) {
    return batch.count >= 64 ? ~0ull : ((1ull << batch.count) - 1);
  }

 private:
  using StateDiff = Scratch::StateDiff;

  /// Units a shard claims per cursor step.
  static constexpr size_t kUnitChunk = 32;

  /// One simulation unit: a fault alone, or an STR/STF pair at one site
  /// probed in one overlay pass. `lead` comes first in cone order.
  struct SimUnit {
    uint32_t lead;
    uint32_t partner;  // kNoPartner (fault/order.h) for a single fault
  };

  // The cone-ordered unit list of `fl`, cached on its fingerprint.
  const std::vector<SimUnit>& sim_units(const FaultList& fl);

  // Copies the current good machine into `sc`'s arenas unless it holds
  // this batch already, growing its buffers to this NCP's bounds.
  void prime(Scratch& sc) const;

  // Simulates fault `a` (and, when non-null, its complementary
  // transition partner `b` at the same site) and returns both mask sets.
  std::pair<ProbeMasks, ProbeMasks> simulate_sites(Scratch& sc,
                                                   const Fault& a,
                                                   const Fault* b,
                                                   uint64_t live_mask,
                                                   FsimWork* work) const;

  // Frame `k` of a fault pass: a linear bitset sweep over the frame's
  // replay program. `inj_mask`/`forced_v`: lanes where the site is
  // overridden and the value bits forced there (forced_v must be a
  // subset of inj_mask).
  void propagate_frame(Scratch& sc, size_t k, GateId site_gate,
                       uint8_t site_pin, uint64_t inj_mask,
                       uint64_t forced_v,
                       const std::vector<StateDiff>& in_state,
                       std::vector<StateDiff>* out_state,
                       uint64_t* hard_po, uint64_t* poss_po,
                       FsimWork* work) const;
  // Faulty value in frame `k` of a net with no dense id there: only
  // carried flop corruption (or a stem injection, handled by the
  // caller) can make it differ from good.
  Val64 off_cone_value(GateId g, size_t k,
                       const std::vector<StateDiff>& in_state) const;

  // This engine's own cone artifacts of one NCP, used when no shared
  // source was given.
  struct PrivateCones {
    FrameObs obs;
    ConeProgram prog;
    bool built = false;
  };

  const Netlist* nl_;
  const ClockingScheme* scheme_;
  GateId scan_en_pi_;
  std::shared_ptr<const ConeArtifactSource> shared_;  // may be null
  std::vector<PrivateCones> private_;  // per NCP index; empty if shared_

  // The good machine of the current batch, read-only while shards probe.
  // Its per-frame vectors (and good_dense_, and each scratch's
  // frame_vals) only grow; the first cur_ncp_->cycles.size() frames are
  // live.
  CycleSim sim_;
  GoodFrames good_;
  // good_.frames packed into each frame's dense-id order.
  std::vector<std::vector<Val64>> good_dense_;
  uint64_t batch_ = 0;  // simulate_good count; primes Scratch arenas
  const NamedCaptureProcedure* cur_ncp_ = nullptr;
  const FrameObs* cur_obs_ = nullptr;
  const ConeProgram* cur_prog_ = nullptr;

  // dff position lookup: gate id -> index in nl.dffs(), or -1.
  std::vector<int32_t> dff_pos_;
  std::vector<GateId> scan_cells_;
  std::vector<int32_t> scan_pos_;  // dff position -> scan position or -1
  // For capture-diff tracking: gate -> dff positions whose D pin it drives.
  std::vector<std::vector<uint32_t>> d_feeds_;
  std::vector<GateId> dff_d_;  // dff position -> D net
  size_t max_fanin_ = 0;       // widest gate (operand spill bound)

  // Cone-ordered unit list, keyed on the fault list's (fingerprint,
  // size); the per-batch live units and their probe results.
  std::vector<SimUnit> units_;
  uint64_t units_key_ = 0;
  size_t units_size_ = static_cast<size_t>(-1);
  std::vector<SimUnit> live_units_;
  std::vector<std::pair<ProbeMasks, ProbeMasks>> results_;

  // The scratch of the 1-shard entry points.
  Scratch scratch_;
};

}  // namespace occ
