#include "fsim/sharded.h"

#include <thread>

namespace occ {

size_t ShardedFaultSim::resolve_shards(size_t shards) {
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return shards;
}

ShardedFaultSim::ShardedFaultSim(
    const Netlist& nl, const ClockingScheme& scheme, GateId scan_en_pi,
    size_t shards, std::shared_ptr<const ConeArtifactSource> shared)
    : sim_(nl, scheme, scan_en_pi, std::move(shared)),
      scratch_(resolve_shards(shards)) {
  if (scratch_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(scratch_.size());
  }
}

FsimStats ShardedFaultSim::detect_faults(
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  return grade_window(
      ps, first, n, netlist(), sim_.scheme(), detections,
      [&](const PatternBatch& batch,
          std::vector<std::pair<size_t, unsigned>>* dets) {
        return detect_faults(batch, fl, dets);
      });
}

}  // namespace occ
