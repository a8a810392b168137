#include "api/session.h"

#include <chrono>
#include <sstream>
#include <string_view>
#include <utility>

#include "api/compiled_design.h"
#include "dft/protocol.h"
#include "fsim/tfsim.h"
#include "netlist/bench_io.h"
#include "netlist/hash.h"
#include "util/check.h"

namespace occ {
namespace {

/// Stage scope guard: emits paired begin/end events around a stage.
class StageScope {
 public:
  StageScope(const ProgressObserver* obs, std::string stage)
      : obs_(obs), stage_(std::move(stage)) {
    emit(ProgressEvent::Kind::kStageBegin);
  }
  ~StageScope() { emit(ProgressEvent::Kind::kStageEnd); }

 private:
  void emit(ProgressEvent::Kind kind) const {
    if (obs_ && *obs_) (*obs_)({kind, stage_, 0, 0});
  }
  const ProgressObserver* obs_;
  std::string stage_;
};

/// The first gate named `name`, as Netlist::find() returns it, without
/// building find()'s lazy name index: the configured design is shared
/// by every session prepared from a copy of its config.
GateId find_shared(const Netlist& nl, std::string_view name) {
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).name == name) return g;
  }
  return kNoGate;
}

}  // namespace

// ---- SessionConfig -------------------------------------------------------

SessionConfig& SessionConfig::design(Netlist nl) {
  design_ = std::make_shared<const Netlist>(std::move(nl));
  return *this;
}
SessionConfig& SessionConfig::design_file(std::string bench_path) {
  design_path_ = std::move(bench_path);
  return *this;
}
SessionConfig& SessionConfig::compiled(
    std::shared_ptr<const CompiledDesign> cd) {
  compiled_ = std::move(cd);
  return *this;
}
SessionConfig& SessionConfig::design_cache(std::shared_ptr<DesignCache> cache) {
  cache_ = std::move(cache);
  return *this;
}
SessionConfig& SessionConfig::scan(ScanConfig cfg) {
  scan_ = std::move(cfg);
  return *this;
}
SessionConfig& SessionConfig::chains(ScanChains ch) {
  chains_ = std::move(ch);
  return *this;
}
SessionConfig& SessionConfig::scan_en(GateId pi) {
  scan_en_ = pi;
  return *this;
}
SessionConfig& SessionConfig::scheme(ClockingScheme s) {
  scheme_ = std::move(s);
  return *this;
}
SessionConfig& SessionConfig::atpg(AtpgOptions o) {
  atpg_ = o;
  return *this;
}
SessionConfig& SessionConfig::seed(uint64_t s) {
  seed_override_ = s;
  return *this;
}
SessionConfig& SessionConfig::source(std::shared_ptr<PatternSource> s) {
  sources_.push_back(std::move(s));
  return *this;
}
SessionConfig& SessionConfig::sink(std::shared_ptr<ResultSink> s) {
  sinks_.push_back(std::move(s));
  return *this;
}
SessionConfig& SessionConfig::observer(ProgressObserver cb) {
  observer_ = std::move(cb);
  return *this;
}
SessionConfig& SessionConfig::engine(EngineOptions o) {
  engine_ = o;
  return *this;
}
SessionConfig& SessionConfig::compress(EdtConfig cfg) {
  edt_ = cfg;
  return *this;
}
SessionConfig& SessionConfig::on_chip_clocking(bool on_chip) {
  on_chip_clocking_ = on_chip;
  return *this;
}

// ---- SessionResult -------------------------------------------------------

std::string SessionResult::summary() const {
  std::ostringstream os;
  os << atpg.summary() << "\n";
  if (has_scan_chains) {
    os << "tester cycles: " << tester_cycles << " ("
       << chains.chains.size() << " chains, max length "
       << chains.max_length() << ")\n";
  }
  if (compression.enabled) {
    os.precision(2);
    os << std::fixed << "compression: " << compression.encoded << "/"
       << compression.cubes_total << " cubes encoded, "
       << compression.roundtrip_ok << " verified, "
       << compression.uncompressed_bits << " -> "
       << compression.compressed_bits << " stimulus bits";
    if (compression.compressed_bits > 0) {
      os << " (" << compression.ratio() << "x)";
    }
    os << "\n";
  }
  return os.str();
}

// ---- Session -------------------------------------------------------------

std::shared_ptr<const CompiledDesign> Session::prepare() {
  if (prepared_) return prepared_;
  const int sources = (cfg_.design_ ? 1 : 0) +
                      (!cfg_.design_path_.empty() ? 1 : 0) +
                      (cfg_.compiled_ ? 1 : 0);
  if (cfg_.compiled_) {
    OCC_CHECK(sources == 1,
              "session: compiled() excludes every other design source");
    // The artifact fixes its scan setup and scheme and is never looked
    // up in a cache, so each of these setters would be silently ignored.
    const auto reject = [](bool set, const char* setter) {
      OCC_CHECK(!set, "session: compiled() excludes ", setter,
                "(); the artifact fixes its scan setup and scheme");
    };
    reject(cfg_.scheme_.has_value(), "scheme");
    reject(cfg_.scan_.has_value(), "scan");
    reject(cfg_.chains_.has_value(), "chains");
    reject(cfg_.scan_en_.has_value(), "scan_en");
    reject(cfg_.cache_ != nullptr, "design_cache");
    prepared_ = cfg_.compiled_;
    return prepared_;
  }
  OCC_CHECK(sources == 1, "session: configure exactly one design source"
            " (design/design_file/compiled), got ", sources);
  OCC_CHECK(cfg_.scheme_.has_value(), "session: no clocking scheme"
                                      " configured");
  OCC_CHECK(!(cfg_.scan_ && cfg_.chains_),
            "session: configure either scan insertion or existing"
            " chains, not both");
  const ProgressObserver* obs = cfg_.observer_ ? &cfg_.observer_ : nullptr;

  // One build, with or without a cache: take or parse the design, insert
  // scan into the session's own copy, then compile. A cached artifact is
  // frozen before it is published, so a warm prepare() finds everything
  // built; a private one keeps its slots lazy, so a plain run pays
  // exactly the builds it uses.
  const auto build = [&]() -> std::shared_ptr<const CompiledDesign> {
    std::shared_ptr<const Netlist> nl = cfg_.design_;
    std::shared_ptr<Netlist> own;  // set once the session owns `nl`
    {
      StageScope scope(obs, "build");
      if (nl == nullptr) {
        nl = own =
            std::make_shared<Netlist>(read_bench_file(cfg_.design_path_));
      }
      OCC_CHECK(nl->size() > 0, "session: netlist is empty");
      OCC_CHECK(nl->finalized(), "session: netlist is not finalized");
    }
    ScanChains chains;
    const bool has_chains = cfg_.scan_ || cfg_.chains_;
    if (cfg_.scan_) {
      StageScope scope(obs, "scan");
      if (own == nullptr) nl = own = std::make_shared<Netlist>(*nl);
      chains = insert_scan(*own, *cfg_.scan_);
    } else if (cfg_.chains_) {
      chains = *cfg_.chains_;
    }
    const GateId scan_en = cfg_.scan_en_ ? *cfg_.scan_en_
                           : has_chains  ? chains.scan_en
                                         : find_shared(*nl, "scan_en");
    if (cfg_.cache_ == nullptr) {
      return CompiledDesign::build(std::move(nl), std::move(chains),
                                   has_chains, scan_en, *cfg_.scheme_);
    }
    StageScope scope(obs, "compile");
    auto cd = CompiledDesign::build(std::move(nl), std::move(chains),
                                    has_chains, scan_en, *cfg_.scheme_);
    cd->freeze();
    return cd;
  };
  if (cfg_.cache_ == nullptr) {
    prepared_ = build();
    return prepared_;
  }

  // The key covers everything build() reads. A design file enters by its
  // path, so a hit parses, scans, hashes and compiles nothing; an
  // in-memory design enters by its content hash. The path comes last and
  // the scan-enable name carries its length, so no two configurations
  // share a key.
  std::string key =
      "scheme:" + std::to_string(scheme_fingerprint(*cfg_.scheme_));
  if (cfg_.scan_en_) key += "|en:" + std::to_string(*cfg_.scan_en_);
  if (cfg_.scan_) {
    const std::string& en = cfg_.scan_->scan_en_name;
    key += "|scan:" + std::to_string(cfg_.scan_->num_chains) + ":" +
           std::to_string(en.size()) + ":" + en;
  } else if (cfg_.chains_) {
    key += "|chains:" + std::to_string(chains_fingerprint(*cfg_.chains_));
  }
  key += cfg_.design_ ? "|netlist:" + std::to_string(netlist_content_hash(
                                          *cfg_.design_))
                      : "|file:" + cfg_.design_path_;
  prepared_ = cfg_.cache_->get_or_build(key, build);
  return prepared_;
}

SessionResult Session::run() {
  const auto t0 = std::chrono::steady_clock::now();
  return execute(prepare(), t0);
}

SessionResult Session::execute(
    const std::shared_ptr<const CompiledDesign>& cd,
    std::chrono::steady_clock::time_point t0) {
  const ProgressObserver* obs = cfg_.observer_ ? &cfg_.observer_ : nullptr;
  SessionResult result;
  result.netlist = cd->netlist_ptr();
  result.chains = cd->chains();
  result.has_scan_chains = cd->has_scan_chains();
  result.scan_en = cd->scan_en();
  result.scheme = cd->scheme();

  // -- ATPG: pattern sources over the sharded fault simulator -------------
  const Netlist& nl = *result.netlist;
  AtpgOptions opts = cfg_.atpg_;
  if (cfg_.seed_override_) opts.seed = *cfg_.seed_override_;
  if (cfg_.edt_) opts.keep_cubes = true;  // encoding works on care bits
  {
    const auto atpg_t0 = std::chrono::steady_clock::now();
    AtpgRunResult& res = result.atpg;
    res.scheme_name = result.scheme.name;
    res.patterns = PatternSet(result.scheme.name);
    res.cubes = PatternSet(result.scheme.name);
    {
      StageScope scope(obs, "faults");
      res.faults = FaultList::build(nl, result.scheme.model);
    }
    Rng rng(opts.seed);
    ShardedFaultSim fsim(nl, result.scheme, result.scan_en,
                         cfg_.engine_.fsim, cd);
    PipelineContext ctx{nl, result.scheme, result.scan_en, opts,
                        cfg_.engine_, res.faults, fsim, rng, res, obs,
                        *cd};

    std::vector<std::shared_ptr<PatternSource>> sources = cfg_.sources_;
    if (sources.empty()) {
      // Classic pipeline: the random stage reads rounds from opts (and
      // skips itself at random_rounds = 0), then deterministic PODEM
      // (whose abort ladder ends in the SAT probe).
      sources.push_back(std::make_shared<RandomPatternSource>());
      sources.push_back(std::make_shared<PodemPatternSource>());
    }
    for (const auto& src : sources) {
      {
        StageScope scope(obs, "source:" + src->name());
        src->generate(ctx);
      }
      StageDisposition d;
      d.stage = src->name();
      d.detected = res.faults.count(FaultStatus::kDetected);
      d.possibly_detected =
          res.faults.count(FaultStatus::kPossiblyDetected);
      d.untestable = res.faults.count(FaultStatus::kUntestable);
      d.proven_untestable =
          res.faults.count(FaultStatus::kProvenUntestable);
      d.aborted = res.faults.count(FaultStatus::kAborted);
      d.undetected = res.faults.count(FaultStatus::kUndetected);
      res.stage_dispositions.push_back(std::move(d));
    }

    // Reverse-order compaction: re-grade against a fresh fault list in
    // reverse pattern order, keep only first-detectors.
    if (opts.reverse_compaction && !res.patterns.empty()) {
      StageScope scope(obs, "compact");
      FaultList fl2 = FaultList::build(nl, result.scheme.model);
      // Preserve untestable/aborted/proven-untestable classifications.
      for (size_t i = 0; i < res.faults.size(); ++i) {
        if (res.faults.status(i) == FaultStatus::kUntestable ||
            res.faults.status(i) == FaultStatus::kAborted ||
            res.faults.status(i) == FaultStatus::kProvenUntestable) {
          fl2.set_status(i, res.faults.status(i));
        }
      }
      // The generation-stage simulator is idle now and detect_faults
      // resets all per-batch state, so compaction reuses it (no second
      // pool or per-shard scratch allocation).
      ShardedFaultSim& fsim2 = fsim;
      // Reverse order, grouped per NCP into batches.
      std::vector<size_t> order(res.patterns.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = res.patterns.size() - 1 - i;
      }
      std::vector<bool> keep(res.patterns.size(), false);
      size_t pos = 0;
      while (pos < order.size()) {
        const uint32_t nc = res.patterns[order[pos]].ncp_index;
        PatternSet group(result.scheme.name);
        std::vector<size_t> group_idx;
        while (pos < order.size() && group.size() < 64 &&
               res.patterns[order[pos]].ncp_index == nc) {
          group.add(res.patterns[order[pos]]);
          group_idx.push_back(order[pos]);
          ++pos;
        }
        PatternBatch b = pack_batch(group, 0, group.size(), nl,
                                    result.scheme.procedures[nc]);
        std::vector<std::pair<size_t, unsigned>> dets;
        const FsimStats st = fsim2.detect_faults(b, fl2, &dets);
        res.fsim.gate_evals += st.gate_evals;
        res.fsim.events_processed += st.events_processed;
        for (const auto& [fault, slot] : dets) {
          keep[group_idx[slot]] = true;
        }
        ctx.progress("compact", pos, order.size());
      }
      PatternSet compacted(result.scheme.name);
      for (size_t i = 0; i < res.patterns.size(); ++i) {
        if (keep[i]) compacted.add(res.patterns[i]);
      }
      // Detection-preserving by construction; adopt the smaller set and
      // the recomputed fault list.
      res.patterns = std::move(compacted);
      res.faults = std::move(fl2);
    }
    res.patterns_after_compaction = res.patterns.size();

    if (opts.classify) {
      StageScope scope(obs, "classify");
      res.classes = classify_undetected(nl, res.faults, result.scan_en);
    }
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - atpg_t0)
                      .count();
  }

  // -- tester-cycle cost model --------------------------------------------
  if (result.has_scan_chains) {
    StageScope scope(obs, "cost");
    result.tester_cycles =
        total_tester_cycles(result.chains, result.atpg.patterns,
                            result.scheme.procedures,
                            cfg_.on_chip_clocking_);
  }

  // -- EDT compression of the deterministic cubes -------------------------
  if (cfg_.edt_) {
    StageScope scope(obs, "compress");
    OCC_CHECK(result.has_scan_chains,
              "session: compression requires scan chains");
    std::vector<size_t> lengths;
    for (const ScanChain& ch : result.chains.chains) {
      lengths.push_back(ch.cells.size());
    }
    const EdtCompressor edt(*cfg_.edt_, lengths);
    const std::vector<GateId> scells = scan_cells(nl);
    CompressionStats& cs = result.compression;
    cs.enabled = true;
    cs.cubes_total = result.atpg.cubes.size();
    for (const TestPattern& p : result.atpg.cubes) {
      std::vector<CareBit> cube;
      for (size_t i = 0; i < p.load.size(); ++i) {
        if (p.load[i] == V3::kX) continue;
        const auto slot = result.chains.slot_of(scells[i]);
        cube.push_back({slot.chain, slot.position, p.load[i] == V3::k1});
      }
      const auto stim = edt.encode(cube);
      if (!stim) continue;  // over-dense cube: would be split/re-targeted
      // Volume accounting covers encoded cubes only, so ratio() really is
      // "compression of the patterns that made it through the encoder".
      cs.uncompressed_bits += result.chains.total_cells();
      ++cs.encoded;
      cs.compressed_bits += stim->cycles * stim->channels;
      const auto loaded = edt.decompress(*stim);
      bool ok = true;
      for (const CareBit& cb : cube) {
        ok = ok && loaded[cb.chain][cb.position] == cb.value;
      }
      cs.roundtrip_ok += ok;
    }
  }

  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  // -- sinks ---------------------------------------------------------------
  for (const auto& sink : cfg_.sinks_) {
    StageScope scope(obs, "sink");
    sink->write(result);
  }
  return result;
}

}  // namespace occ
