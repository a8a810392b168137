/// \file
/// occ::CompiledDesign -- the immutable bundle of everything derivable
/// from (design source, scan configuration, clocking scheme) -- and
/// occ::DesignCache, the thread-safe map that serves it to concurrent
/// sessions.
///
/// A Session's pipeline consumes three families of derived artifacts:
/// the finalized post-scan netlist (+ chain description), the per-NCP
/// observability masks and the compiled cone replay programs
/// (sim/cone_program.h), and the per-NCP unrolled combinational models
/// (atpg/unroll.h) that PODEM and the SAT probes search. All
/// of them are pure functions of (netlist, scheme) and read-only during
/// execution; only per-engine scratch is mutable. CompiledDesign owns
/// exactly one copy of each, built lazily on first use and then frozen
/// (std::call_once per slot), so repeat runs, repeated bench
/// experiments and concurrent sessions pay the build cost once.
///
/// Bit-identity contract: a run over a cached artifact produces the
/// same patterns, fault statuses, detection slots and deterministic
/// work counters as a fresh run, for every shard count -- the
/// artifacts are byte-identical to what each engine would build
/// privately, and everything mutable (PODEM engines, SAT probe buffers,
/// fault-sim scratch, RNG streams) stays per-run.
/// tests/test_compiled_design.cpp pins this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "atpg/unroll.h"
#include "dft/scan.h"
#include "fsim/fsim.h"

namespace occ {

/// Stable 64-bit fingerprint of a clocking scheme: name, fault model,
/// scan_en freezing, and every capture procedure's cycle structure
/// (pulse masks, PI-change / PO-strobe / at-speed flags). Part of a
/// session's DesignCache key -- two schemes with equal fingerprints
/// compile to identical per-NCP artifacts on the same netlist.
uint64_t scheme_fingerprint(const ClockingScheme& scheme);

/// Immutable compiled-design artifact (see file comment). Create via
/// build(); share via std::shared_ptr<const CompiledDesign>. All
/// accessors are const and thread-safe: lazily-built slots freeze after
/// their first build (call_once), so every reader observes the same
/// bytes.
class CompiledDesign : public ConeArtifactSource {
 public:
  /// Builds the artifact shell: takes ownership of the finalized
  /// post-scan netlist, the chain description, the resolved scan-enable
  /// and the validated scheme. Per-NCP artifacts are built lazily on
  /// first access (freeze() forces them).
  static std::shared_ptr<CompiledDesign> build(
      std::shared_ptr<const Netlist> netlist, ScanChains chains,
      bool has_scan_chains, GateId scan_en, ClockingScheme scheme);

  /// The finalized (scan-inserted) design the artifacts derive from.
  const Netlist& netlist() const { return *netlist_; }
  /// Shared ownership of the design (what SessionResult::netlist gets).
  const std::shared_ptr<const Netlist>& netlist_ptr() const {
    return netlist_;
  }
  /// Scan chains (inserted or adopted); meaningful iff has_scan_chains().
  const ScanChains& chains() const { return chains_; }
  /// True when chains() describes real scan chains.
  bool has_scan_chains() const { return has_scan_chains_; }
  /// Resolved scan-enable input (kNoGate = none).
  GateId scan_en() const { return scan_en_; }
  /// The validated clocking scheme the artifacts were compiled for.
  const ClockingScheme& scheme() const { return scheme_; }

  /// Frozen observability masks of capture procedure `ncp_index`
  /// (ConeArtifactSource; byte-identical to a private build).
  const FrameObs& shared_frame_obs(size_t ncp_index) const override;
  /// Frozen compiled replay program of capture procedure `ncp_index`.
  const ConeProgram& shared_cone_program(size_t ncp_index) const override;
  /// Frozen unrolled combinational model of capture procedure
  /// `ncp_index` (shared by the PODEM shards and the SAT probes; the
  /// model is read-only after construction, search scratch stays
  /// per-shard).
  const UnrolledModel& unrolled(size_t ncp_index) const;

  /// Forces every artifact of every capture procedure (observability
  /// masks, replay programs, unrolled models). Called on the cold path
  /// of Session::prepare() so a warm prepare() skips parse, scan
  /// insertion, unrolling and cone compilation entirely.
  void freeze() const;

  /// Approximate resident bytes of the netlist plus every artifact
  /// built so far (what DesignCache::Stats::resident_bytes sums, captured
  /// at insertion time -- i.e. post-freeze). Deterministic for a given
  /// design and freeze state.
  size_t approx_bytes() const;

 private:
  CompiledDesign() = default;

  std::shared_ptr<const Netlist> netlist_;
  ScanChains chains_;
  bool has_scan_chains_ = false;
  GateId scan_en_ = kNoGate;
  ClockingScheme scheme_;

  // Lazily-built-once, then frozen, per-NCP slots. The once flags
  // serialize the first build; the atomic built flags let approx_bytes()
  // observe completed slots without touching the once machinery.
  mutable std::vector<FrameObs> obs_;
  mutable std::vector<ConeProgram> progs_;
  mutable std::vector<std::unique_ptr<UnrolledModel>> models_;
  mutable std::unique_ptr<std::once_flag[]> obs_once_;
  mutable std::unique_ptr<std::once_flag[]> prog_once_;
  mutable std::unique_ptr<std::once_flag[]> model_once_;
  mutable std::unique_ptr<std::atomic<bool>[]> obs_built_;
  mutable std::unique_ptr<std::atomic<bool>[]> prog_built_;
  mutable std::unique_ptr<std::atomic<bool>[]> model_built_;
};

/// Thread-safe cache of compiled designs under caller-chosen keys
/// (Session::prepare() keys on its configuration: design file or netlist
/// content, scan setup, scan-enable and scheme fingerprint), with
/// hit/miss counters. One DesignCache serves any number of concurrent
/// Sessions: the first session to request a key builds (other
/// requesters for the same key block on the in-flight build rather than
/// duplicating it), everyone else shares the frozen artifact. Entries
/// live as long as the cache.
class DesignCache {
 public:
  /// Cache observability counters.
  struct Stats {
    uint64_t hits = 0;          ///< lookups served from the cache
    uint64_t misses = 0;        ///< lookups that built
    size_t resident_bytes = 0;  ///< approx_bytes() summed over entries
  };
  /// Snapshot of the counters.
  Stats stats() const;

  /// Returns the compiled design under `key`, invoking `build` exactly
  /// once per key (concurrent requesters block on the in-flight build).
  /// A build failure propagates to every waiter and leaves no entry.
  std::shared_ptr<const CompiledDesign> get_or_build(
      const std::string& key,
      const std::function<std::shared_ptr<const CompiledDesign>()>& build);

 private:
  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const CompiledDesign>>>
      entries_;
};

}  // namespace occ
