/// \file
/// occ::Session -- the unified entry point to the whole pipeline:
///
///   design source -> scan insertion -> clocking scheme -> ATPG
///   (pluggable PatternSources over a sharded fault simulator) ->
///   reverse-order compaction -> fault classification -> tester-cycle
///   cost -> optional EDT compression -> ResultSinks.
///
/// One SessionConfig describes the scenario; Session::run() executes it
/// and returns a SessionResult aggregating coverage, pattern counts,
/// compression statistics and ATE cost. Every example, bench driver and
/// the Table-1 harness are one Session each. AtpgOptions (atpg()) say
/// what the flow computes, EngineOptions (engine()) how the engines run
/// it; results are bit-identical for every shard count.
///
/// Quickstart:
/// \code
///   auto result = occ::Session(
///       occ::SessionConfig()
///           .design(occ::gen::make_counter(8))
///           .scan({.num_chains = 2})
///           .scheme(occ::scheme_stuck_at_external(1))
///           .engine({.fsim = {.shards = 4}}))
///       .run();
///   std::cout << result.summary();
/// \endcode
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/stages.h"
#include "dft/edt.h"
#include "dft/scan.h"
#include "fsim/options.h"

namespace occ {

class CompiledDesign;
class DesignCache;

/// EDT encode statistics for the session's deterministic cubes.
struct CompressionStats {
  bool enabled = false;       ///< true when the compress stage ran
  size_t cubes_total = 0;     ///< deterministic cubes offered for encoding
  size_t encoded = 0;         ///< cubes with a consistent GF(2) encoding
  size_t roundtrip_ok = 0;    ///< encoded cubes verified via decompress()
  size_t uncompressed_bits = 0;  ///< chain-load bits of the encoded cubes
  size_t compressed_bits = 0;    ///< channel stimulus bits after encoding

  /// Volume ratio uncompressed/compressed over the encoded cubes
  /// (0 when nothing was encoded).
  double ratio() const {
    return compressed_bits == 0
               ? 0.0
               : static_cast<double>(uncompressed_bits) /
                     static_cast<double>(compressed_bits);
  }
};

/// Aggregated outcome of one Session::run().
struct SessionResult {
  /// The design the pipeline ran on (shared with the compiled artifact;
  /// never the caller's own netlist object).
  std::shared_ptr<const Netlist> netlist;
  ClockingScheme scheme;  ///< the validated scheme the run used
  ScanChains chains;      ///< scan chains (inserted or adopted)
  bool has_scan_chains = false;  ///< true when `chains` is meaningful
  GateId scan_en = kNoGate;      ///< resolved scan-enable input, if any

  AtpgRunResult atpg;  ///< pattern sets, fault list, per-stage counters
  /// ATE vector-memory cost of the final pattern set (0 without chains).
  size_t tester_cycles = 0;
  CompressionStats compression;  ///< EDT stage outcome (see `enabled`)
  double seconds = 0.0;          ///< whole session wall clock

  /// Detected / detectable faults (excludes proven-untestable).
  double test_coverage() const { return atpg.test_coverage(); }
  /// Detected / total faults.
  double fault_coverage() const { return atpg.fault_coverage(); }
  /// Final pattern count (after compaction when enabled).
  size_t pattern_count() const { return atpg.pattern_count(); }

  /// Multi-line human-readable report.
  std::string summary() const;
};

/// Builder-style configuration for one session. All setters return *this
/// so scenarios read as one chained expression.
class SessionConfig {
 public:
  // ---- design source (exactly one) --------------------------------------
  /// Takes a finalized netlist by value (`.design(nl)` copies, so the
  /// caller keeps its own). The config holds it immutably and shares it
  /// with every copy of the config; scan insertion works on the
  /// session's own copy.
  SessionConfig& design(Netlist nl);
  /// Parses an extended-dialect `.bench` file (see docs/BENCH_FORMAT.md)
  /// during prepare(). Parse errors surface from run() as CheckError
  /// with the offending line number.
  SessionConfig& design_file(std::string bench_path);
  /// Injects a prebuilt compiled-design artifact (api/compiled_design.h):
  /// the session skips the build/scan/compile stages entirely and
  /// executes over the artifact's netlist, chains and scheme. No other
  /// design source, scheme(), scan(), chains(), scan_en() or
  /// design_cache() may be configured alongside; results are
  /// bit-identical to a fresh build of the same configuration.
  SessionConfig& compiled(std::shared_ptr<const CompiledDesign> cd);
  /// Attaches a shared DesignCache: prepare() fetches the frozen
  /// compiled artifact under a key built from this configuration (the
  /// design file path or the netlist's content hash, the scan setup or
  /// adopted chains, an explicit scan_en() and the scheme fingerprint),
  /// and publishes cold builds into it. Any number of concurrent
  /// sessions may share one cache; cached and fresh runs are
  /// bit-identical.
  SessionConfig& design_cache(std::shared_ptr<DesignCache> cache);

  // ---- DFT ---------------------------------------------------------------
  /// Insert scan during prepare(), on the session's own copy of the
  /// design; the netlist passed to design() is never mutated.
  SessionConfig& scan(ScanConfig cfg);
  /// Adopt chains from scan insertion already done by the caller.
  SessionConfig& chains(ScanChains ch);
  /// Explicit scan-enable input (kNoGate = none). Without this, chains
  /// provide it, or the input named "scan_en" is used when present.
  SessionConfig& scan_en(GateId pi);

  // ---- clocking & ATPG ---------------------------------------------------
  /// The clocking scheme (capture procedures + constraints); required.
  SessionConfig& scheme(ClockingScheme s);
  /// ATPG options (seed, backtrack limits, compaction, ...).
  SessionConfig& atpg(AtpgOptions o);
  /// Pins the ATPG seed; wins over AtpgOptions::seed regardless of the
  /// order seed() and atpg() were called in.
  SessionConfig& seed(uint64_t s);

  // ---- pluggable stages --------------------------------------------------
  /// Appends a pattern source; with none registered the session runs the
  /// classic random + PODEM pipeline.
  SessionConfig& source(std::shared_ptr<PatternSource> s);
  /// Appends a result sink, run after all pipeline stages complete.
  SessionConfig& sink(std::shared_ptr<ResultSink> s);
  /// Installs the progress callback for stage and long-run events.
  SessionConfig& observer(ProgressObserver cb);

  // ---- engine selection --------------------------------------------------
  /// The whole engine-selection surface in one call (fsim/options.h):
  /// fault-simulation shards, PODEM worker shards and the SAT probe's
  /// conflict budget. This is what the drivers parse their shared
  /// `--shards/--atpg-shards/--sat-budget` flags into (see
  /// util/cli.h's parse_engine_flag). Results are bit-identical for
  /// every shard count.
  SessionConfig& engine(EngineOptions o);

  // ---- optional stages ---------------------------------------------------
  /// EDT-compress the deterministic cubes after ATPG (implies
  /// keep_cubes; requires scan chains).
  SessionConfig& compress(EdtConfig cfg);
  /// Tester-cycle cost model flavor: on-chip clocking uses the
  /// arm-and-wait capture block, external clocking pays per-pulse tester
  /// cycles. Also selects the AteProgramSink flavor via the result.
  SessionConfig& on_chip_clocking(bool on_chip);

 private:
  friend class Session;

  // Design source variants (at most one set).
  std::shared_ptr<const Netlist> design_;
  std::string design_path_;  // .bench file, parsed in prepare()
  std::shared_ptr<const CompiledDesign> compiled_;  // prebuilt artifact
  std::shared_ptr<DesignCache> cache_;              // shared, may be null

  std::optional<ScanConfig> scan_;
  std::optional<ScanChains> chains_;
  std::optional<GateId> scan_en_;
  std::optional<ClockingScheme> scheme_;
  AtpgOptions atpg_;
  std::optional<uint64_t> seed_override_;
  EngineOptions engine_;
  std::vector<std::shared_ptr<PatternSource>> sources_;
  std::vector<std::shared_ptr<ResultSink>> sinks_;
  ProgressObserver observer_;
  std::optional<EdtConfig> edt_;
  bool on_chip_clocking_ = false;
};

/// Executes one configured pipeline, split into two phases:
///
///   prepare() -- materialize the immutable compiled-design artifact
///     (parse/build, scan insertion, per-NCP model + cone compilation),
///     through the configured DesignCache when one is attached;
///   run() -- prepare() if not already done, then execute the pattern
///     pipeline over the frozen artifact.
///
/// Construction is cheap; all work happens in prepare()/run(). A Session
/// may be run multiple times; every run is independent and deterministic
/// in the configured seed, and the prepared artifact is reused across
/// runs of the same session (it is immutable, so this cannot change any
/// result bit).
class Session {
 public:
  /// Captures the configuration; no work happens until prepare()/run().
  explicit Session(SessionConfig cfg) : cfg_(std::move(cfg)) {}

  /// The configuration this session executes.
  const SessionConfig& config() const { return cfg_; }

  /// Materializes (or fetches from the configured DesignCache) the
  /// compiled design this session executes over, without running any
  /// patterns. Idempotent: later calls (and run()) reuse the artifact.
  /// On a cache hit this skips parse, scan insertion, hashing, unrolling
  /// and cone compilation entirely. Throws CheckError on configuration
  /// errors (no design, empty netlist, invalid scheme).
  std::shared_ptr<const CompiledDesign> prepare();

  /// Runs the full pipeline (prepare() + execute). Throws CheckError on
  /// configuration errors (no design, empty netlist, invalid scheme,
  /// compression without chains).
  SessionResult run();

 private:
  SessionResult execute(const std::shared_ptr<const CompiledDesign>& cd,
                        std::chrono::steady_clock::time_point t0);

  SessionConfig cfg_;
  std::shared_ptr<const CompiledDesign> prepared_;
};

}  // namespace occ
