#include "fsim/sharded.h"

#include <algorithm>
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
    size_t shards, std::shared_ptr<const ConeArtifactSource> shared) {
  const size_t n = resolve_shards(shards);
  sims_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    sims_.push_back(
        std::make_unique<NcpFaultSim>(nl, scheme, scan_en_pi, shared));
  }
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

FsimStats ShardedFaultSim::detect_faults(
    const PatternBatch& batch, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  if (sims_.size() == 1) {
    return sims_[0]->detect_faults(batch, fl, detections);
  }

  const size_t n = sims_.size();
  const uint64_t live = NcpFaultSim::live_mask(batch);
  probes_.assign(fl.size(), FaultProbe{});
  work_.assign(fl.size(), FsimWork{});

  // Shared cone-locality walk order and STR/STF partner map (computed
  // once, read-only for the workers; shard 0's cache is authoritative).
  const std::vector<uint32_t>& order = sims_[0]->sim_order(fl);
  const std::vector<uint32_t>& partners = sims_[0]->sim_partners(fl);

  // Fan out: faults are interleaved over the shards for load balance
  // (collapsed fault lists cluster equivalent-cost faults), with an
  // STR/STF pair always co-owned via its lower index so it can be
  // probed in one overlay pass; each shard walks its subset in
  // cone-locality order. Shards only read the fault list and write
  // disjoint probe slots, so the merge below reproduces the sequential
  // detect_faults result exactly.
  const auto owner = [&](uint32_t i) {
    const uint32_t j = partners[i];
    const uint32_t group = j == NcpFaultSim::kNoPartner ? i : std::min(i, j);
    return group % n;
  };
  pool_->run([&](size_t s) {
    NcpFaultSim& sim = *sims_[s];
    sim.simulate_good(batch);
    for (const uint32_t i : order) {
      if (owner(i) != s) continue;
      FaultProbe& p = probes_[i];
      if (p.simulated) continue;
      if (!fsim_wants_simulation(fl.status(i))) continue;
      const uint32_t j = partners[i];
      if (j != NcpFaultSim::kNoPartner && !probes_[j].simulated &&
          fsim_wants_simulation(fl.status(j))) {
        const auto [ma, mb] = sim.probe_fault_pair(fl.fault(i), fl.fault(j),
                                                   live, &work_[i]);
        p = {ma.hard, ma.poss, true};
        probes_[j] = {mb.hard, mb.poss, true};
      } else {
        auto [hard, poss] = sim.probe_fault(fl.fault(i), live, &work_[i]);
        p = {hard, poss, true};
      }
    }
  });

  // Merge in fault-index order via the canonical walk shared with the
  // sequential engine, fed from the precomputed probes.
  FsimStats st = merge_fault_probes(probes_, fl, detections);
  FsimWork total;
  for (const FsimWork& w : work_) total += w;
  st.gate_evals = total.gate_evals;
  st.events_processed = total.events_processed;
  return st;
}

FsimStats ShardedFaultSim::detect_faults(
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  return grade_window(
      ps, first, n, netlist(), sims_[0]->scheme(), detections,
      [&](const PatternBatch& batch,
          std::vector<std::pair<size_t, unsigned>>* dets) {
        return detect_faults(batch, fl, dets);
      });
}

}  // namespace occ
