// ATPG options and results: the full test-generation flow for one
// clocking scheme, run by occ::Session (api/session.h):
//
//   1. fault universe + structural collapsing;
//   2. random-pattern stage per capture procedure (patterns kept only if
//      they are the first detector of some fault);
//   3. deterministic PODEM stage with fault dropping (64-wide PPSFP);
//   4. optional reverse-order compaction pass;
//   5. optional structural classification of leftover faults.
//
// Every Table-1 experiment of the paper is one Session with a different
// ClockingScheme. AtpgOptions says what the flow computes; how the
// engines run (shards, SAT conflict budget) is EngineOptions
// (fsim/options.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/podem.h"
#include "core/clock_scheme.h"
#include "fsim/fsim.h"
#include "fsim/tfsim.h"

namespace occ {

struct AtpgOptions {
  uint64_t seed = 0x0cc7e57;
  /// Backtracks per cheap PODEM run, the first rung of the abort
  /// ladder; an abort is handed to the SAT probe
  /// (EngineOptions::sat_conflict_budget). 32, not more: a probe costs
  /// about as much as 100 backtracks and settles nearly every instance
  /// it gets, while a PODEM run that outlasts 32 backtracks rarely
  /// finds a test before 300 (docs/ARCHITECTURE.md, "Why the cheap
  /// rung stops at 32").
  uint32_t backtrack_limit = 32;
  /// Optional random pre-stage (OFF by default: commercial flows get the
  /// same effect from random fill of deterministic cubes): max 64-pattern
  /// rounds per capture procedure; a round yielding fewer than two new
  /// detections ends the stage for that procedure.
  size_t random_rounds = 0;
  /// Static cube merging (dynamic-compaction stand-in): a new PODEM cube
  /// is merged into the most recent compatible open cube of the same
  /// capture procedure.
  bool merge_cubes = true;
  bool reverse_compaction = true;
  bool classify = false;
  /// Keep the unfilled deterministic cubes (care bits only) in
  /// AtpgRunResult::cubes -- needed by compression flows, which encode
  /// care bits rather than filled patterns.
  bool keep_cubes = false;
};

/// Deterministic SAT work counters: the solver work of every committed
/// SAT probe of the deterministic stage (sat/probe.h).
struct SatStats {
  uint64_t solves = 0;  ///< CDCL solver invocations (one per probe)
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  /// Learned clauses each probe's solver held when it ended, summed
  /// over the probes.
  uint64_t learned_kept = 0;
  /// Always 0: probes share no learned clauses. Kept because the
  /// occbench driver reports it.
  uint64_t learned_reused = 0;

  SatStats& operator+=(const SatStats& o) {
    solves += o.solves;
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    learned_kept += o.learned_kept;
    learned_reused += o.learned_reused;
    return *this;
  }
};

/// Fault-status tallies after one pipeline stage, for auditable
/// coverage reporting (occ run --json / bench_table1 --json).
struct StageDisposition {
  std::string stage;  ///< source name ("random", "podem", ...)
  size_t detected = 0;
  size_t possibly_detected = 0;
  size_t untestable = 0;
  size_t proven_untestable = 0;
  size_t aborted = 0;
  size_t undetected = 0;
};

struct AtpgRunResult {
  std::string scheme_name;
  PatternSet patterns{""};
  PatternSet cubes{""};  // unfilled cubes (only if opts.keep_cubes)
  FaultList faults;
  Podem::Stats podem;
  FsimStats fsim;
  FaultClassReport classes;
  size_t random_patterns = 0;
  size_t deterministic_patterns = 0;
  size_t external_patterns = 0;  // graded via ExternalCubeSource
  /// Wasted speculation of the parallel deterministic stage (both zero
  /// when it runs sequentially): PODEM runs whose fault was already
  /// detected when its canonical commit slot came up, and how many of
  /// those runs had produced a (now discarded) cube. Deliberately NOT
  /// part of the bit-identity contract -- they depend on shard count
  /// and scheduling, unlike `podem`, which counts committed work only.
  size_t speculative_runs = 0;
  size_t discarded_cubes = 0;
  /// Abort-ladder counters of the deterministic stage. Committed in
  /// canonical fault order, so -- unlike the speculation counters
  /// above -- they ARE part of the bit-identity contract across shard
  /// counts.
  size_t escalations = 0;    ///< cheap-PODEM aborts handed to the SAT probe
  size_t sat_probe_wins = 0; ///< probes that settled the fault (SAT or UNSAT)
  /// Probes that proved their instance undetectable (kUnsat or
  /// kNoObservation); sat_probe_wins - sat_refutations probes gave a
  /// cube.
  size_t sat_refutations = 0;
  /// SAT counters of the deterministic stage's probes.
  SatStats sat;
  /// Fault-status tallies after each pipeline source stage, in run
  /// order (filled by occ::Session).
  std::vector<StageDisposition> stage_dispositions;
  size_t patterns_after_compaction = 0;
  double seconds = 0.0;

  double test_coverage() const { return faults.test_coverage(); }
  double fault_coverage() const { return faults.fault_coverage(); }
  size_t pattern_count() const { return patterns.size(); }

  /// Table-row style summary line.
  std::string summary() const;
};

}  // namespace occ
