/// \file
/// Parallel deterministic PODEM stage: speculative cube generation over
/// a persistent thread pool, committed in canonical fault order so the
/// outcome is bit-identical to the sequential stage for any shard count.
///
/// Protocol (docs/ARCHITECTURE.md, "The speculative-commit protocol"):
///   * the leader scans the fault list in index order and collects a
///     window of still-eligible (undetected / possibly-detected) faults;
///   * the shards of the stage's persistent ThreadPool take the window's
///     faults from a shared atomic cursor and walk each fault's
///     instances -- capability pre-filter, fault translation, the whole
///     abort ladder (cheap PODEM, then one SAT probe per cheap abort) --
///     over the session's shared per-procedure models, with private
///     PODEM engines and probe buffers (search scratch is never shared);
///   * the leader then commits the outcomes in fault-index order,
///     running the exact sequential bookkeeping: eligibility re-check
///     (the fault may have been dropped by a flush committed earlier in
///     the same window), static cube merging, windowed random-fill +
///     fault-simulation flush through the session's sharded engine,
///     status updates, and the PODEM, ladder and SAT counters;
///   * an outcome whose fault is no longer eligible at its commit slot
///     is discarded: its work lands in AtpgRunResult::speculative_runs /
///     discarded_cubes and never reaches the committed counters.
///
/// The stage is the only code that decides a PODEM abort (abort ladder,
/// docs/ARCHITECTURE.md): every cheap-PODEM abort gets one SAT probe at
/// EngineOptions::sat_conflict_budget, and an inconclusive probe commits
/// the fault as aborted.
///
/// A walk is a pure function of (fault, frozen per-procedure models,
/// budget) -- it never reads fault statuses, the session RNG, other
/// walks or any commit history -- so which shard walks a fault, and
/// when, cannot change its outcome, and the committed sequence of
/// (walk, bookkeeping) steps is exactly the sequential stage's.
/// Patterns, fault statuses, detection slots and every deterministic
/// work counter match bit for bit across shard counts; only wall clock
/// and the wasted speculative work vary.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "api/stages.h"
#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "sat/probe.h"
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
  /// Outcome of one fault's walk, with every counter it adds at commit.
  struct Attempt {
    bool detected = false;  ///< some target produced a cube
    bool aborted = false;   ///< some target outlasted the SAT probe
    /// Instance proven undetectable by a SAT probe; with no detection
    /// and no abort left, the fault commits as kProvenUntestable.
    bool sat_settled = false;
    uint32_t ncp = 0;       ///< capture procedure of `cube` when detected
    TestPattern cube;       ///< the care-bit cube when detected
    Podem::Stats stats;     ///< PODEM work of this walk only
    size_t escalations = 0;     ///< cheap-PODEM aborts probed
    size_t sat_probe_wins = 0;  ///< probes that settled their instance
    size_t sat_refutations = 0; ///< probes that proved it undetectable
    SatStats sat;               ///< the probes' solver work
  };

  /// Per-shard scratch: the PODEM engines per capture procedure, over
  /// the session's shared frozen models (PipelineContext::compiled;
  /// read-only during the search), and the SAT probe's buffers. Search
  /// state is mutable and never shared across shards.
  struct ShardScratch {
    std::vector<std::unique_ptr<Podem>> podems;
    sat::ProbeScratch probe;
  };

  static bool eligible(FaultStatus s) {
    return s == FaultStatus::kUndetected ||
           s == FaultStatus::kPossiblyDetected;
  }

  /// True when procedure `nc` can capture an effect of fault `fi`.
  bool capable(size_t fi, uint32_t nc) const;
  Podem* podem_for(ShardScratch& sc, uint32_t nc) const;
  Podem::Stats stats_sum(const ShardScratch& sc) const;

  /// The one walk over fault `fi`'s instances, procedure by procedure,
  /// until one yields a cube: cheap PODEM per instance, and one SAT
  /// probe for each cheap abort. Touches only `sc` and `out`, so any
  /// shard may run it.
  void walk(ShardScratch& sc, size_t fi, Attempt* out) const;
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
  // Open (unfilled) cube windows per NCP for static merging.
  std::vector<std::vector<TestPattern>> open_cubes_;
};

}  // namespace occ
