#include "api/compiled_design.h"

#include <cinttypes>
#include <cstdio>

#include "netlist/hash.h"
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

std::string compiled_design_key(uint64_t design_hash, uint64_t chains_fp,
                                GateId scan_en, uint64_t scheme_fp) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "d%016" PRIx64 "-c%016" PRIx64 "-e%08x-s%016" PRIx64,
                design_hash, chains_fp, static_cast<unsigned>(scan_en),
                scheme_fp);
  return buf;
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
  cd->design_hash_ = netlist_content_hash(*cd->netlist_);
  cd->key_ = compiled_design_key(
      cd->design_hash_,
      cd->has_scan_chains_ ? chains_fingerprint(cd->chains_) : 0, scan_en,
      scheme_fingerprint(cd->scheme_));

  const size_t n = cd->scheme_.procedures.size();
  cd->obs_.resize(n);
  cd->progs_.resize(n);
  cd->models_.resize(n);
  cd->cnf_.resize(n);
  cd->obs_once_ = std::make_unique<std::once_flag[]>(n);
  cd->prog_once_ = std::make_unique<std::once_flag[]>(n);
  cd->model_once_ = std::make_unique<std::once_flag[]>(n);
  cd->cnf_once_ = std::make_unique<std::once_flag[]>(n);
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

const sat::CnfLowering& CompiledDesign::cnf_base(size_t ncp_index) const {
  OCC_CHECK(ncp_index < cnf_.size(), "CompiledDesign: NCP out of range");
  std::call_once(cnf_once_[ncp_index], [&] {
    cnf_[ncp_index] =
        std::make_unique<sat::CnfLowering>(unrolled(ncp_index));
  });
  return *cnf_[ncp_index];
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
  std::promise<std::shared_ptr<const CompiledDesign>> prom;
  std::shared_future<std::shared_ptr<const CompiledDesign>> fut;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      it->second.lru = ++tick_;
      fut = it->second.fut;
    } else {
      ++stats_.misses;
      fut = prom.get_future().share();
      Entry e;
      e.fut = fut;
      e.lru = ++tick_;
      entries_.emplace(key, std::move(e));
      builder = true;
    }
  }
  if (!builder) return fut.get();

  // Build outside the lock: concurrent same-key requesters block on the
  // future; different keys build in parallel.
  std::shared_ptr<const CompiledDesign> cd;
  try {
    cd = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      entries_.erase(key);
    }
    prom.set_exception(std::current_exception());
    throw;
  }
  prom.set_value(cd);
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.ready = true;
      it->second.bytes = cd ? cd->approx_bytes() : 0;
      stats_.resident_bytes += it->second.bytes;
      evict_locked(key);
    }
  }
  return cd;
}

std::shared_ptr<const DesignCache::BaseDesign> DesignCache::base_get_or_build(
    const std::string& key, const std::function<BaseDesign()>& build) {
  std::promise<std::shared_ptr<const BaseDesign>> prom;
  std::shared_future<std::shared_ptr<const BaseDesign>> fut;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = base_.find(key);
    if (it != base_.end()) {
      ++stats_.base_hits;
      fut = it->second;
    } else {
      ++stats_.base_misses;
      fut = prom.get_future().share();
      base_.emplace(key, fut);
      builder = true;
    }
  }
  if (!builder) return fut.get();

  std::shared_ptr<const BaseDesign> bd;
  try {
    bd = std::make_shared<const BaseDesign>(build());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      base_.erase(key);
    }
    prom.set_exception(std::current_exception());
    throw;
  }
  prom.set_value(bd);
  return bd;
}

void DesignCache::evict_locked(const std::string& protect) {
  if (budget_ == 0) return;
  while (stats_.resident_bytes > budget_) {
    // Deterministic LRU: the ready entry with the oldest use tick, never
    // the one just inserted (a cache that evicts its own insertion would
    // thrash without ever holding anything).
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready || it->first == protect) continue;
      if (victim == entries_.end() || it->second.lru < victim->second.lru) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    stats_.resident_bytes -= victim->second.bytes;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

}  // namespace occ
