// Sharded PPSFP fault simulation: one NcpFaultSim simulates each batch's
// good machine once, and the shards of a persistent thread pool probe
// the batch's fault units against it. Each shard owns only an
// NcpFaultSim::Scratch (its write-through arenas, active bitset and
// carried state; the per-fault propagation scratch is not shareable)
// and takes chunks of the cone-ordered unit list (a unit is one fault
// or one STR/STF pair) from a shared atomic cursor, so neighbouring
// units in cone order share a shard's warm arenas and one expensive
// unit delays only its own shard. Results are kept per unit and applied
// by the calling thread once every shard is done.
//
// Faults are independent within one batch -- the engine's fault dropping
// only acts *between* batches -- so the result reproduces the sequential
// NcpFaultSim::detect_faults result bit for bit: identical statuses,
// identical stats, identical (fault, first-detecting-slot) pairs, for
// any shard count. That invariant is what keeps every Session result
// independent of the session's thread setting (tests/test_api.cpp
// locks it in).
#pragma once

#include <memory>
#include <vector>

#include "fsim/fsim.h"
#include "util/thread_pool.h"

namespace occ {

class ShardedFaultSim {
 public:
  /// `shards` = number of concurrent probing shards (1 = sequential,
  /// no pool, exact NcpFaultSim code path; 0 = hardware concurrency).
  /// `shared` (optional): frozen per-NCP cone artifacts to consume
  /// instead of building a private copy (see ConeArtifactSource);
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

  size_t shards() const { return scratch_.size(); }
  const Netlist& netlist() const { return sim_.netlist(); }

  /// The shard count a `shards` argument resolves to (0 = hardware
  /// concurrency, never less than 1). Exposed so drivers echoing the
  /// value (bench_table1 --json) stay authoritative.
  static size_t resolve_shards(size_t shards);

  /// Drop-in replacement for NcpFaultSim::detect_faults (same contract,
  /// same results, bit for bit); units fan out over the shard pool.
  FsimStats detect_faults(
      const PatternBatch& batch, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr) {
    return sim_.detect_faults(batch, fl, detections, scratch_, pool_.get());
  }

  /// Window form, mirroring NcpFaultSim: simulates patterns
  /// [first, first + n) of `ps`, packing maximal same-NCP runs into
  /// 64-lane sweeps internally. Detection slots are relative to `first`.
  FsimStats detect_faults(
      const PatternSet& ps, size_t first, size_t n, FaultList& fl,
      std::vector<std::pair<size_t, unsigned>>* detections = nullptr);

  /// Good-machine expected responses for slot `s` of the last batch.
  std::vector<V3> expected_unload(unsigned slot) const {
    return sim_.expected_unload(slot);
  }

 private:
  NcpFaultSim sim_;
  std::vector<NcpFaultSim::Scratch> scratch_;  // one per shard
  std::unique_ptr<ThreadPool> pool_;           // null when shards() == 1
};

}  // namespace occ
