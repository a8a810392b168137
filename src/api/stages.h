/// \file
/// Pluggable pipeline stages for occ::Session.
///
/// A session turns a design into a graded pattern set by running an
/// ordered list of PatternSources over one shared PipelineContext (fault
/// list, sharded fault simulator, RNG, result accumulators), then hands
/// the finished SessionResult to every registered ResultSink. Progress on
/// long runs is surfaced through a ProgressObserver callback.
///
/// Built-in sources:
///   RandomPatternSource  -- 64-wide random rounds, first-detector keep;
///   PodemPatternSource   -- deterministic PODEM with fault dropping,
///                           static cube merging and the abort ladder;
///   ExternalCubeSource   -- grades cubes produced elsewhere (a previous
///                           session, a file, a diagnostic tool).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "atpg/engine.h"
#include "fsim/options.h"
#include "fsim/sharded.h"
#include "util/rng.h"

namespace occ {

struct SessionResult;
class CompiledDesign;

/// One progress notification. Stage begin/end events always nest and a
/// session emits them in deterministic order; kProgress events carry a
/// done/total pair for long-running stages (deterministic PODEM).
struct ProgressEvent {
  /// What happened.
  enum class Kind {
    kStageBegin,  ///< a named stage started
    kStageEnd,    ///< the matching stage finished
    kProgress     ///< done/total progress inside a long stage
  };
  Kind kind = Kind::kStageBegin;  ///< event discriminator
  std::string stage;              ///< stage name ("build", "source:podem", ...)
  size_t done = 0;                ///< work finished (kProgress only)
  size_t total = 0;               ///< total work (kProgress only)
};

/// Callback receiving a session's ProgressEvents (may be empty).
using ProgressObserver = std::function<void(const ProgressEvent&)>;

/// Shared state every PatternSource works against. The fault simulator
/// is the session's sharded instance: sources written against this
/// context parallelize across the session's thread pool for free.
struct PipelineContext {
  const Netlist& nl;             ///< the (scan-inserted) design under test
  const ClockingScheme& scheme;  ///< active clocking scheme
  GateId scan_en;                ///< scan-enable input (kNoGate = none)
  const AtpgOptions& opts;       ///< session ATPG options
  const EngineOptions& engine;   ///< session engine selection
  FaultList& faults;             ///< shared fault statuses (updated live)
  ShardedFaultSim& fsim;         ///< the session's sharded simulator
  Rng& rng;                      ///< session random stream
  AtpgRunResult& res;  ///< pattern/cube accumulators and counters
  const ProgressObserver* observer;  ///< may be null
  /// The session's frozen compiled-design artifact (api/compiled_design.h):
  /// the shared per-NCP unrolled models and good-machine CNF lowerings
  /// the deterministic stage runs over.
  const CompiledDesign& compiled;

  /// Forwards a kProgress event for `stage` to the observer, if any.
  void progress(const std::string& stage, size_t done, size_t total) const {
    if (observer && *observer) {
      (*observer)({ProgressEvent::Kind::kProgress, stage, done, total});
    }
  }
};

/// A test-generation stage: appends patterns to ctx.res.patterns and
/// updates fault statuses through ctx.fsim / ctx.faults.
class PatternSource {
 public:
  virtual ~PatternSource() = default;  ///< virtual for owning containers
  /// Stable stage name (used in progress events: "source:<name>").
  virtual std::string name() const = 0;
  /// Appends patterns / updates fault statuses through `ctx`.
  virtual void generate(PipelineContext& ctx) = 0;
};

/// Random-pattern stage with first-detector pattern selection: up to
/// AtpgOptions::random_rounds 64-pattern rounds per capture procedure;
/// a round detecting fewer than two new faults ends the stage for that
/// procedure.
class RandomPatternSource : public PatternSource {
 public:
  std::string name() const override { return "random"; }
  void generate(PipelineContext& ctx) override;
};

/// Deterministic PODEM stage: per-NCP unrolled models, capability
/// pre-filtering, the abort ladder (cheap PODEM, then one SAT probe per
/// abort at EngineOptions::sat_conflict_budget), static cube merging
/// and windowed flush-to-fault-simulation, all per the session's
/// AtpgOptions.
/// Runs on EngineOptions::atpg_shards worker threads (0 = follow the
/// session's fault-simulation shard count) via the speculative-commit
/// coordinator in atpg/parallel.h; committed results are bit-identical
/// to the sequential loop for every shard count.
class PodemPatternSource : public PatternSource {
 public:
  std::string name() const override { return "podem"; }
  void generate(PipelineContext& ctx) override;
};

/// Grades externally produced test cubes: every cube is random-filled
/// with a child RNG split off the session stream by cube index (so the
/// fill is identical however the cubes are batched or sharded), then
/// fault-simulated with dropping. Cubes must already reference this
/// session's scheme (ncp_index) and netlist geometry.
class ExternalCubeSource : public PatternSource {
 public:
  /// Takes the cubes to grade (ncp_index/geometry must match the session).
  explicit ExternalCubeSource(PatternSet cubes) : cubes_(std::move(cubes)) {}
  std::string name() const override { return "external"; }
  void generate(PipelineContext& ctx) override;

 private:
  PatternSet cubes_;
};

/// Consumes a finished session. Sinks run after every pipeline stage
/// (including compaction/compression) completed, in registration order.
class ResultSink {
 public:
  virtual ~ResultSink() = default;  ///< virtual for owning containers
  /// Consumes the finished result (called once per run, in order).
  virtual void write(const SessionResult& result) = 0;
};

/// Writes the one-line coverage/pattern summary (plus compression and
/// tester-cycle lines when those stages ran) to a stream.
class SummarySink : public ResultSink {
 public:
  /// Writes to `os` (borrowed; must outlive the sink).
  explicit SummarySink(std::ostream& os) : os_(&os) {}
  void write(const SessionResult& result) override;

 private:
  std::ostream* os_;
};

/// Dumps the final pattern set in the STIL-flavored text format.
class PatternTextSink : public ResultSink {
 public:
  /// Writes to `os` (borrowed; must outlive the sink).
  explicit PatternTextSink(std::ostream& os) : os_(&os) {}
  void write(const SessionResult& result) override;

 private:
  std::ostream* os_;
};

/// Compiles the pattern set into the ATE pin-cycle program (internal
/// pulses converted back to scan_clk/scan_en sequences, paper section 4)
/// and writes it. Requires the session to have scan chains.
class AteProgramSink : public ResultSink {
 public:
  /// Writes to `os`; `on_chip_clocking` selects the capture flavor.
  AteProgramSink(std::ostream& os, bool on_chip_clocking)
      : os_(&os), on_chip_(on_chip_clocking) {}
  void write(const SessionResult& result) override;
  /// Tester cycles of the most recently written program.
  size_t last_program_cycles() const { return last_cycles_; }

 private:
  std::ostream* os_;
  bool on_chip_;
  size_t last_cycles_ = 0;
};

}  // namespace occ
