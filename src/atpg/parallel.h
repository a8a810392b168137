/// \file
/// Parallel deterministic PODEM stage: speculative cube generation
/// streamed through a bounded ring, committed in canonical fault order
/// so the outcome is bit-identical to the sequential stage for any
/// shard count.
///
/// Protocol (docs/ARCHITECTURE.md, "The speculative-commit protocol"):
///   * the stage is one ThreadPool(atpg_shards + 1) dispatch; the
///     calling thread is shard 0, the committer, and fills a bounded
///     ring with still-eligible (undetected / possibly-detected) faults
///     in fault-index order, up to kLookaheadFaultsPerShard x shards
///     ahead of its commit point;
///   * the other atpg_shards threads are walkers: each claims the next
///     ring slot from a shared atomic cursor and walks that fault's
///     instances -- capability pre-filter, fault translation, the whole
///     abort ladder (cheap PODEM, then one SAT probe per cheap abort) --
///     over the session's shared per-procedure models, with private
///     PODEM engines and probe buffers (search scratch is never shared),
///     then publishes the slot's outcome with a release store;
///   * the committer sleeps until the next slot in fault order is
///     published and commits it with the exact sequential bookkeeping:
///     eligibility re-check (a flush committed after the slot was filled
///     may have dropped the fault), static cube merging, windowed
///     random-fill + fault-simulation flush through the session's
///     sharded engine, status updates, the PODEM, ladder and SAT
///     counters, and a progress event for every scanned fault index;
///   * an outcome whose fault is no longer eligible at its commit slot
///     is discarded: its work lands in AtpgRunResult::speculative_runs /
///     discarded_cubes and never reaches the committed counters.
/// The committer never walks while walkers exist. With one shard there
/// is no pool: the same loop re-checks eligibility and walks each slot
/// itself, which is exactly the sequential schedule.
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
/// Patterns, fault statuses, detection slots, progress events and every
/// deterministic work counter match bit for bit across shard counts;
/// only wall clock and the wasted speculative work vary.
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
/// stage once over the context's fault list with the streaming
/// protocol described in the file comment; `shards` is the number of
/// walkers (1 = the calling thread walks, no pool and no speculation).
class ParallelPodem {
 public:
  /// `stage` is the progress-event stage name ("podem" for the built-in
  /// source). Construction precomputes the structural sink/capture
  /// pre-filters and spawns the walker pool; all PODEM work happens in
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

  /// Per-walker scratch: the PODEM engines per capture procedure, over
  /// the session's shared frozen models (PipelineContext::compiled;
  /// read-only during the search), and the SAT probe's buffers. Search
  /// state is mutable and never shared across walkers.
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
  /// Sequential bookkeeping for one attempt (committer side).
  void commit_fault(size_t fi, Attempt& att);
  /// Statically merges `cube` into procedure `nc`'s open window, or
  /// opens a new slot (flushing a full window).
  void merge_cube(uint32_t nc, TestPattern cube);
  /// Random-fills and fault-simulates the open cubes of procedure `nc`.
  void flush(uint32_t nc);

  /// The committer-walker hand-off (defined in parallel.cpp).
  struct Ring;
  /// The committer: fills `ring` in fault order and commits its slots
  /// in the same order, walking them itself when there is no pool.
  /// Closes the ring on every exit path so no walker is left waiting.
  void commit_stream(Ring& ring);
  /// A walker: claims, walks and publishes ring slots until the ring
  /// closes.
  void walk_stream(Ring& ring, ShardScratch& sc) const;

  PipelineContext& ctx_;
  size_t shards_;
  std::string stage_;

  // Structural pre-filters, computed once (identical for every fault).
  std::vector<DomainMask> sink_domains_;  // per gate: reachable flop domains
  std::vector<bool> sink_po_;             // per gate: reaches a PO
  std::vector<DomainMask> capture_mask_;  // per NCP: capturing domains
  std::vector<bool> po_obs_;              // per NCP: strobes any PO

  std::vector<ShardScratch> scratch_;  // one per walker
  // The committer plus shards_ walkers; null when shards_ == 1.
  std::unique_ptr<ThreadPool> pool_;
  // Open (unfilled) cube windows per NCP for static merging.
  std::vector<std::vector<TestPattern>> open_cubes_;
};

}  // namespace occ
