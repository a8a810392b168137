// Sharded PPSFP fault simulation: the fault list is partitioned across a
// persistent thread pool, each shard owning a private NcpFaultSim (the
// per-fault propagation scratch is not shareable), and the per-fault
// detection masks are merged back in fault-index order.
//
// Faults are independent within one batch -- the engine's fault dropping
// only acts *between* batches -- so the merge reproduces the sequential
// NcpFaultSim::detect_faults result bit for bit: identical statuses,
// identical stats, identical (fault, first-detecting-slot) pairs, for
// any shard count. That invariant is what keeps every Session result
// independent of the session's thread setting (tests/test_api.cpp
// locks it in).
//
// Each shard walks its interleaved fault subset in the shared
// cone-locality order (fault/order.h), so consecutive probes inside a
// shard touch overlapping fanout cones.
#pragma once

#include <memory>
#include <vector>

#include "fsim/fsim.h"
#include "util/thread_pool.h"

namespace occ {

class ShardedFaultSim {
 public:
  /// `shards` = number of concurrent fault partitions (1 = sequential,
  /// no pool, exact NcpFaultSim code path; 0 = hardware concurrency).
  /// `shared` (optional): frozen per-NCP cone artifacts every shard
  /// consumes instead of rebuilding privately (see ConeArtifactSource);
  /// results are bit-identical with or without it.
  ShardedFaultSim(const Netlist& nl, const ClockingScheme& scheme,
                  GateId scan_en_pi, size_t shards = 1,
                  std::shared_ptr<const ConeArtifactSource> shared = nullptr);

  /// FsimOptions form of the same constructor (the drivers' path).
  ShardedFaultSim(const Netlist& nl, const ClockingScheme& scheme,
                  GateId scan_en_pi, const FsimOptions& opts,
                  std::shared_ptr<const ConeArtifactSource> shared = nullptr)
      : ShardedFaultSim(nl, scheme, scan_en_pi, opts.shards,
                        std::move(shared)) {}

  size_t shards() const { return sims_.size(); }
  const Netlist& netlist() const { return sims_[0]->netlist(); }

  /// The shard count a `shards` argument resolves to (0 = hardware
  /// concurrency, never less than 1). Exposed so drivers echoing the
  /// value (bench_table1 --json) stay authoritative.
  static size_t resolve_shards(size_t shards);

  /// Drop-in replacement for NcpFaultSim::detect_faults (same contract,
  /// same results, bit for bit); faults fan out over the shard pool.
  FsimStats detect_faults(
      const PatternBatch& batch, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// Window form, mirroring NcpFaultSim: simulates patterns
  /// [first, first + n) of `ps`, packing maximal same-NCP runs into
  /// 64-lane sweeps internally. Detection slots are relative to `first`.
  FsimStats detect_faults(
      const PatternSet& ps, size_t first, size_t n, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// Good-machine expected responses for slot `s` of the last batch
  /// (every shard simulated the same batch; shard 0 answers).
  std::vector<V3> expected_unload(unsigned slot) const {
    return sims_[0]->expected_unload(slot);
  }

 private:
  std::vector<std::unique_ptr<NcpFaultSim>> sims_;
  std::unique_ptr<ThreadPool> pool_;  // null when shards() == 1
  // Indexed by fault, reused per batch; shards write disjoint slots.
  std::vector<FaultProbe> probes_;
  std::vector<FsimWork> work_;
};

}  // namespace occ
