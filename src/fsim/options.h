/// \file
/// Engine-selection options shared by every fault-simulation driver.
///
/// FsimOptions holds the shard count of the ShardedFaultSim wrapper;
/// EngineOptions adds the remaining engine knobs (deterministic PODEM
/// worker shards, the SAT backend and its conflict budget) that used to
/// be scattered over SessionConfig setters and per-driver flag loops.
/// SessionConfig owns one EngineOptions; the drivers parse the shared
/// `--shards/--atpg-shards/--sat/--sat-budget` flags into it via
/// occ::parse_engine_flag (util/cli.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace occ {

/// Fault-simulation engine configuration: the shard count of the
/// surrounding ShardedFaultSim (there is one propagation engine; see
/// fsim/fsim.h).
struct FsimOptions {
  /// Thread shards of the fault-list fan-out (1 = sequential, 0 =
  /// hardware concurrency). Results are bit-identical for every value.
  size_t shards = 1;
};

/// The whole engine-selection surface in one struct: what used to be
/// SessionConfig::fsim_shards()/atpg_shards()/sat_backend()/
/// sat_conflict_budget() and one flag-parsing branch per driver.
struct EngineOptions {
  FsimOptions fsim;
  /// Worker shards of the deterministic PODEM stage (0 = follow the
  /// fault-simulation shard count; 1 = plain sequential loop).
  size_t atpg_shards = 0;
  /// Run the SAT backend (sat/source.h) on PODEM-aborted faults.
  bool sat_backend = false;
  /// Per-solve conflict budget of the SAT backend; 0 = unlimited.
  uint64_t sat_conflict_budget = 100000;
  /// PODEM search heuristics (atpg/podem.h) + the parallel stage's cube
  /// cache. Off (`--atpg-heuristics off`) reproduces the pre-heuristic
  /// search and all its committed counters bit-identically.
  bool atpg_heuristics = true;
  /// Adaptive PODEM->SAT escalation of the deterministic stage
  /// (atpg/engine.h AtpgOptions::escalation). Off
  /// (`--atpg-escalation off`) reproduces the cheap-then-deep PODEM
  /// schedule and all its committed counters bit-identically.
  bool atpg_escalation = true;
};

}  // namespace occ
