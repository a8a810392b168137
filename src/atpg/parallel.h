/// \file
/// Parallel deterministic PODEM stage: speculative cube generation over
/// a persistent thread pool, committed in canonical fault order so the
/// outcome is bit-identical to the sequential stage for any shard count.
///
/// Protocol (docs/ARCHITECTURE.md, "The speculative-commit protocol"):
///   * the leader scans the fault list in index order and collects a
///     window of still-eligible (undetected / possibly-detected) faults;
///   * every shard of the stage's persistent ThreadPool walks the fault
///     instances of its interleaved subset of the window -- capability
///     pre-filter, fault translation, cheap PODEM search -- over the
///     session's shared per-procedure models, with private PODEM
///     engines (search scratch is never shared); a walk stops at its
///     first cheap-PODEM abort;
///   * the leader then commits the speculative outcomes in fault-index
///     order, running the exact sequential bookkeeping: eligibility
///     re-check (the fault may have been dropped by a flush committed
///     earlier in the same window), the rest of a stopped walk (abort
///     ladder), static cube merging, windowed random-fill +
///     fault-simulation flush through the session's sharded engine,
///     status updates, and Podem::Stats accounting;
///   * a speculative outcome whose fault is no longer eligible at its
///     commit slot is discarded: its work lands in
///     AtpgRunResult::speculative_runs / discarded_cubes and never
///     reaches the committed counters.
///
/// The stage is the only code that decides a PODEM abort (abort ladder,
/// docs/ARCHITECTURE.md): every cheap-PODEM abort gets one SAT probe on
/// the leader's miters at EngineOptions::sat_conflict_budget, and an
/// inconclusive probe commits the fault as aborted.
///
/// A cheap PODEM attempt depends only on (netlist, scheme, fault) --
/// never on fault statuses, the session RNG, or other attempts -- so the
/// committed sequence of (attempt, bookkeeping) steps is exactly the
/// sequential stage's. Patterns, fault statuses, detection slots and
/// every deterministic work counter match bit for bit across shard
/// counts; only wall clock and the wasted speculative work vary.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/stages.h"
#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "sat/incremental.h"
#include "util/thread_pool.h"

namespace occ {

/// The one EngineOptions::atpg_shards resolution rule: 0 follows the
/// session's (already resolved) fault-simulation shard count. Shared by
/// the stage itself and by every driver echoing the value in reports,
/// so the JSON meta can never drift from what the session actually ran.
constexpr size_t resolve_atpg_shards(size_t atpg_shards,
                                     size_t resolved_fsim_shards) {
  return atpg_shards == 0 ? resolved_fsim_shards : atpg_shards;
}

/// Builds the pattern cube of a PODEM/SAT variable assignment: care bits
/// placed per the model's VarInfo map, PI values copied forward into
/// frozen frames.
TestPattern cube_to_pattern(const UnrolledModel& um,
                            const std::vector<V3>& cube, const Netlist& nl,
                            uint32_t ncp_index);

/// Coordinator for the deterministic PODEM stage. One instance runs the
/// stage once over the context's fault list; `shards == 1` executes the
/// plain sequential loop (no pool, no speculation), larger counts the
/// speculative-commit protocol described in the file comment.
class ParallelPodem {
 public:
  /// `stage` is the progress-event stage name ("podem" for the built-in
  /// source). Construction precomputes the structural sink/capture
  /// pre-filters and spawns the worker pool; all PODEM work happens in
  /// run().
  ParallelPodem(PipelineContext& ctx, size_t shards, std::string stage);
  ~ParallelPodem();

  ParallelPodem(const ParallelPodem&) = delete;
  ParallelPodem& operator=(const ParallelPodem&) = delete;

  /// Runs the whole deterministic stage (generate, merge, flush,
  /// status + stats bookkeeping).
  void run();

 private:
  /// One committed detection, remembered per fault-site gate: a later
  /// fault of the same cone is seeded with this cube first (podem.h,
  /// seeded run) -- siblings usually need near-identical tests.
  struct CubeCacheEntry {
    uint32_t ncp = 0;          ///< capture procedure the cube belongs to
    std::vector<V3> var_cube;  ///< var-space cube (model.var_gates() order)
  };
  using CubeCacheRef = std::shared_ptr<const CubeCacheEntry>;

  /// Outcome of one fault's instance walk.
  struct Attempt {
    bool detected = false;  ///< some target produced a cube
    bool aborted = false;   ///< some target outlasted the SAT probe
    uint32_t ncp = 0;       ///< capture procedure of `cube` when detected
    TestPattern cube;       ///< the care-bit cube when detected
    std::vector<V3> var_cube;  ///< var-space copy of the detecting cube
    Podem::Stats stats;     ///< PODEM work of this attempt only
    /// A worker's walk stopped at its first cheap-PODEM abort; the
    /// leader resumes it at commit time so the history-dependent
    /// incremental solves happen in canonical fault order.
    bool pending = false;
    /// Instance proven undetectable by a SAT probe; with no detection
    /// and no abort left, the fault commits as kProvenUntestable.
    bool sat_settled = false;
    uint32_t esc_nc = 0;    ///< resume point: capture procedure
    size_t esc_target = 0;  ///< resume point: instance index within it
  };

  /// Per-shard scratch: the PODEM engines per capture procedure, over
  /// the session's shared frozen models (PipelineContext::compiled;
  /// read-only during the search). PODEM search state is mutable and
  /// never shared across shards.
  struct ShardScratch {
    std::vector<std::unique_ptr<Podem>> podems;
  };

  static bool eligible(FaultStatus s) {
    return s == FaultStatus::kUndetected ||
           s == FaultStatus::kPossiblyDetected;
  }

  /// Canonical cube-cache entry for fault `fi` right now (null = none).
  CubeCacheRef seed_for(size_t fi) const;

  /// True when procedure `nc` can capture an effect of fault `fi`.
  bool capable(size_t fi, uint32_t nc) const;
  Podem* podem_for(ShardScratch& sc, uint32_t nc) const;
  Podem::Stats stats_sum(const ShardScratch& sc) const;

  /// The one walk over fault `fi`'s instances, procedure by procedure,
  /// until one yields a cube. `seed`: the cube-cache entry visible for
  /// this fault (null = none). A worker (`leader` false; touches only
  /// `sc` and `out`) stops at the first cheap-PODEM abort and records
  /// the resume point (Attempt::pending). The leader hands each cheap
  /// abort to the SAT probe in place and, given a pending attempt,
  /// resumes it at the recorded point. The leader runs on scratch_[0]
  /// and the shared miters, in canonical fault order.
  void walk(ShardScratch& sc, size_t fi, const CubeCacheEntry* seed,
            bool leader, Attempt* out);
  /// The leader's shared incremental miter of capture procedure `nc`.
  sat::IncrementalMiter* miter_for(uint32_t nc);
  /// Sequential bookkeeping for one attempt (leader side).
  void commit_fault(size_t fi, Attempt& att);
  /// Statically merges `cube` into procedure `nc`'s open window, or
  /// opens a new slot (flushing a full window).
  void merge_cube(uint32_t nc, TestPattern cube);
  /// Random-fills and fault-simulates the open cubes of procedure `nc`.
  void flush(uint32_t nc);

  void run_sequential();
  void run_speculative();

  PipelineContext& ctx_;
  size_t shards_;
  std::string stage_;

  // Structural pre-filters, computed once (identical for every fault).
  std::vector<DomainMask> sink_domains_;  // per gate: reachable flop domains
  std::vector<bool> sink_po_;             // per gate: reaches a PO
  std::vector<DomainMask> capture_mask_;  // per NCP: capturing domains
  std::vector<bool> po_obs_;              // per NCP: strobes any PO

  std::vector<ShardScratch> scratch_;  // one per shard
  std::unique_ptr<ThreadPool> pool_;   // null when shards_ == 1
  // Leader-owned incremental SAT miters, one per capture procedure,
  // lazily seeded from the session's frozen good-machine lowering.
  // Learned clauses persist across every probed fault of the procedure;
  // solver work is folded into ctx_.res.sat at stage end.
  std::vector<std::unique_ptr<sat::IncrementalMiter>> miters_;
  // Open (unfilled) cube windows per NCP for static merging.
  std::vector<std::vector<TestPattern>> open_cubes_;
  // Per-cone cube cache (leader-owned): latest committed detection per
  // fault-site gate. Shard parity: the speculative path snapshots each
  // candidate's entry at window build and, at commit, re-runs the
  // attempt on the leader whenever the canonical entry has moved -- the
  // committed (seed, attempt) sequence is therefore exactly the
  // sequential one for any shard count; the wasted worker run lands in
  // speculative_runs/discarded_cubes.
  std::unordered_map<GateId, CubeCacheRef> cube_cache_;
};

}  // namespace occ
