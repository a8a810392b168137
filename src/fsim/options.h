/// \file
/// Engine-selection options: the one home of every engine knob.
///
/// FsimOptions holds the shard count of the ShardedFaultSim wrapper;
/// EngineOptions adds the deterministic-PODEM worker shards and the SAT
/// probe's conflict budget. SessionConfig::engine() takes one
/// EngineOptions and the session hands it to every stage through
/// PipelineContext::engine; the drivers parse the shared
/// `--shards/--atpg-shards/--sat-budget` flags into it via
/// occ::parse_engine_flag (util/cli.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace occ {

/// Fault-simulation engine configuration: the shard count of the
/// surrounding ShardedFaultSim (there is one propagation engine; see
/// fsim/fsim.h).
struct FsimOptions {
  /// Thread shards that probe each batch's faults against its one
  /// good-machine simulation (1 = sequential, 0 = hardware
  /// concurrency). Results are bit-identical for every value.
  size_t shards = 1;
};

/// The whole engine-selection surface in one struct; AtpgOptions
/// (atpg/engine.h) holds only what the flow computes, never how.
struct EngineOptions {
  FsimOptions fsim = {};
  /// Walkers of the deterministic PODEM stage (atpg/parallel.h): 0 =
  /// follow the fault-simulation shard count; 1 = the calling thread
  /// walks every fault itself, in fault order (the sequential schedule);
  /// N > 1 = N walker threads while the calling thread commits.
  /// Committed results are bit-identical for every
  /// value -- only wall clock and the wasted speculative work
  /// (AtpgRunResult::speculative_runs) vary.
  size_t atpg_shards = 0;
  /// Conflict budget of the SAT probe, the last rung of the
  /// deterministic stage's abort ladder (atpg/parallel.h); 0 =
  /// unlimited. Each cheap-PODEM abort gets one solve of its own CNF
  /// miter (sat/probe.h): a test cube, a redundancy proof
  /// (kProvenUntestable), or an exhausted budget (the fault commits as
  /// kAborted).
  uint64_t sat_conflict_budget = 100000;
};

}  // namespace occ
