#include "api/compiled_design.h"

#include "sim/cone_program.h"
#include "util/check.h"

namespace occ {

namespace {

// FNV-1a, same construction as netlist_content_hash / chains_fingerprint.
struct Fnv {
  uint64_t h = 14695981039346656037ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    mix(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  }
};

size_t netlist_bytes(const Netlist& nl) {
  size_t b = nl.size() * sizeof(Gate);
  for (GateId g = 0; g < static_cast<GateId>(nl.size()); ++g) {
    const Gate& gate = nl.gate(g);
    b += (gate.fanin.size() + gate.fanout.size()) * sizeof(GateId);
    b += gate.name.size();
  }
  return b;
}

size_t obs_bytes(const FrameObs& o) {
  size_t b = 0;
  for (const auto& v : o.live) b += v.size();
  for (const auto& v : o.capture) b += v.size();
  return b;
}

size_t prog_bytes(const ConeProgram& p) {
  size_t b = 0;
  for (const FrameProgram& f : p.frames) {
    b += f.nodes.size() * sizeof(ConeNode);
    b += f.gate_of.size() * sizeof(GateId);
    b += f.dense_of.size() * sizeof(int32_t);
    b += (f.fanin_pool.size() + f.fanout.size() + f.dfeed.size()) *
         sizeof(uint32_t);
    b += f.dff_pulsed.size();
  }
  return b;
}

size_t model_bytes(const UnrolledModel& m) {
  size_t b = netlist_bytes(m.comb());
  b += (m.num_frames() + 1) * m.original().size() * sizeof(GateId);
  b += m.var_gates().size() *
       (sizeof(GateId) + sizeof(UnrolledModel::VarInfo));
  b += m.observations().size() * sizeof(GateId);
  return b;
}

}  // namespace

uint64_t scheme_fingerprint(const ClockingScheme& scheme) {
  Fnv f;
  f.mix(scheme.name);
  f.mix(static_cast<uint64_t>(scheme.model));
  f.mix(static_cast<uint64_t>(scheme.scan_en_frozen));
  f.mix(static_cast<uint64_t>(scheme.procedures.size()));
  for (const NamedCaptureProcedure& ncp : scheme.procedures) {
    f.mix(ncp.name);
    f.mix(static_cast<uint64_t>(ncp.cycles.size()));
    for (const CaptureCycle& c : ncp.cycles) {
      f.mix(static_cast<uint64_t>(c.pulses));
      f.mix(static_cast<uint64_t>(c.pi_change) |
            (static_cast<uint64_t>(c.po_strobe) << 1) |
            (static_cast<uint64_t>(c.at_speed) << 2));
    }
  }
  return f.h;
}

std::shared_ptr<CompiledDesign> CompiledDesign::build(
    std::shared_ptr<const Netlist> netlist, ScanChains chains,
    bool has_scan_chains, GateId scan_en, ClockingScheme scheme) {
  OCC_CHECK(netlist != nullptr, "CompiledDesign: null netlist");
  OCC_CHECK(netlist->finalized(), "CompiledDesign: netlist not finalized");
  scheme.validate();

  // Two-phase: the owned netlist and scheme get their final addresses
  // first, so the lazily-built UnrolledModels (which keep pointers into
  // both) stay valid for the artifact's whole lifetime.
  auto cd = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  cd->netlist_ = std::move(netlist);
  cd->chains_ = std::move(chains);
  cd->has_scan_chains_ = has_scan_chains;
  cd->scan_en_ = scan_en;
  cd->scheme_ = std::move(scheme);

  const size_t n = cd->scheme_.procedures.size();
  cd->obs_.resize(n);
  cd->progs_.resize(n);
  cd->models_.resize(n);
  cd->obs_once_ = std::make_unique<std::once_flag[]>(n);
  cd->prog_once_ = std::make_unique<std::once_flag[]>(n);
  cd->model_once_ = std::make_unique<std::once_flag[]>(n);
  cd->obs_built_ = std::make_unique<std::atomic<bool>[]>(n);
  cd->prog_built_ = std::make_unique<std::atomic<bool>[]>(n);
  cd->model_built_ = std::make_unique<std::atomic<bool>[]>(n);
  return cd;
}

const FrameObs& CompiledDesign::shared_frame_obs(size_t ncp_index) const {
  OCC_CHECK(ncp_index < obs_.size(), "CompiledDesign: NCP out of range");
  std::call_once(obs_once_[ncp_index], [&] {
    obs_[ncp_index] =
        build_frame_obs(*netlist_, scheme_.procedures[ncp_index]);
    obs_built_[ncp_index].store(true, std::memory_order_release);
  });
  return obs_[ncp_index];
}

const ConeProgram& CompiledDesign::shared_cone_program(
    size_t ncp_index) const {
  OCC_CHECK(ncp_index < progs_.size(), "CompiledDesign: NCP out of range");
  std::call_once(prog_once_[ncp_index], [&] {
    progs_[ncp_index] =
        compile_cone_program(*netlist_, scheme_.procedures[ncp_index],
                             shared_frame_obs(ncp_index));
    prog_built_[ncp_index].store(true, std::memory_order_release);
  });
  return progs_[ncp_index];
}

const UnrolledModel& CompiledDesign::unrolled(size_t ncp_index) const {
  OCC_CHECK(ncp_index < models_.size(), "CompiledDesign: NCP out of range");
  std::call_once(model_once_[ncp_index], [&] {
    models_[ncp_index] = std::make_unique<UnrolledModel>(
        *netlist_, scheme_, static_cast<uint32_t>(ncp_index), scan_en_);
    model_built_[ncp_index].store(true, std::memory_order_release);
  });
  return *models_[ncp_index];
}

void CompiledDesign::freeze() const {
  for (size_t nc = 0; nc < scheme_.procedures.size(); ++nc) {
    shared_frame_obs(nc);
    shared_cone_program(nc);
    unrolled(nc);
  }
}

size_t CompiledDesign::approx_bytes() const {
  size_t b = netlist_bytes(*netlist_);
  for (size_t nc = 0; nc < obs_.size(); ++nc) {
    if (obs_built_[nc].load(std::memory_order_acquire)) {
      b += obs_bytes(obs_[nc]);
    }
    if (prog_built_[nc].load(std::memory_order_acquire)) {
      b += prog_bytes(progs_[nc]);
    }
    if (model_built_[nc].load(std::memory_order_acquire)) {
      b += model_bytes(*models_[nc]);
    }
  }
  return b;
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::shared_ptr<const CompiledDesign> DesignCache::get_or_build(
    const std::string& key,
    const std::function<std::shared_ptr<const CompiledDesign>()>& build) {
  std::unique_lock<std::mutex> lk(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    const auto fut = it->second;
    lk.unlock();
    return fut.get();
  }
  ++stats_.misses;
  std::promise<std::shared_ptr<const CompiledDesign>> prom;
  entries_.emplace(key, prom.get_future().share());
  lk.unlock();

  // Build outside the lock: concurrent same-key requesters block on the
  // future; different keys build in parallel.
  std::shared_ptr<const CompiledDesign> cd;
  try {
    cd = build();
  } catch (...) {
    lk.lock();
    entries_.erase(key);
    lk.unlock();
    prom.set_exception(std::current_exception());
    throw;
  }
  prom.set_value(cd);
  const size_t bytes = cd ? cd->approx_bytes() : 0;
  lk.lock();
  stats_.resident_bytes += bytes;
  return cd;
}

}  // namespace occ
