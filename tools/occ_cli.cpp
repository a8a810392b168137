// `occ` -- command-line front door for external designs.
//
// Runs the full Session pipeline (scan insertion, clocking scheme, ATPG,
// compaction, tester-cycle cost, optional EDT compression) on any
// extended-dialect `.bench` circuit (docs/BENCH_FORMAT.md), prints the
// human summary, and optionally emits the machine-readable occ-bench-v1
// report that bench/bench_ci.py consumes.
//
// Usage:
//   occ run --design circuits/s344c.bench [--scheme ncp] [--chains N]
//           [--shards N] [--atpg-shards N] [--seed N]
//           [--random-rounds N] [--edt CHANNELS] [--repeat N]
//           [--sat-budget CONFLICTS] [--json PATH] [--quiet]
//
// The engine-selection flags (--shards/--atpg-shards/--sat-budget) are
// the shared vocabulary of util/cli.h's parse_engine_flag and map onto
// one occ::EngineOptions handed to SessionConfig::engine();
// bench_engines and bench_table1 parse the identical set.
//   occ stats --design circuits/s344c.bench
//   occ corpus [--dir circuits]
//   occ sat-export --design circuits/s344c.bench --fault N [--scheme ncp]
//           [--chains N] [--ncp N] [--instance N] [--out PATH]
//
// `--sat-budget` (default 100000, 0 = unlimited) is the conflict budget
// of the abort ladder's SAT probe: every fault instance cheap PODEM
// aborts gets one solve of its own dual-rail miter -- a test cube, a
// redundancy proof (proven-untestable, which leaves the test-coverage
// denominator), or aborted when the budget is exhausted.
//
// `sat-export` dumps the DIMACS CNF of one fault instance's dual-rail
// miter -- the formula the SAT probe solves for it -- for inspection or
// for feeding an external solver.
//
// `--repeat N` (default 1) runs the session N times and reports the
// median wall time (the wall_ms.* metrics in the occ-bench-v1 report),
// so external designs participate in CI perf tracking with the same
// repeat-median semantics as the bench drivers; results are asserted
// identical across repeats.
//
// Schemes (same capability set as the Table-1 experiments):
//   stuck_at | a       stuck-at, external clock
//   external | b       transition, ideal external at-speed clock
//   ncp | cpf | c      transition, basic per-domain CPF (default)
//   enhanced | d       transition, enhanced CPF (bursts + inter-domain)
//   constrained | e    transition, external clock + CPF constraints
//
// Exit codes: 0 success, 1 pipeline/parse failure, 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/compiled_design.h"
#include "api/session.h"
#include "atpg/parallel.h"
#include "atpg/unroll.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fault/fault_list.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "sat/lower.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

using namespace occ;

int usage(const char* argv0) {
  std::cerr
      << "usage:\n"
      << "  " << argv0
      << " run --design PATH [--scheme NAME] [--chains N] [--shards N]\n"
      << "      [--atpg-shards N] [--seed N] [--random-rounds N]\n"
      << "      [--edt CHANNELS] [--repeat N]\n"
      << "      [--sat-budget CONFLICTS] [--json PATH] [--quiet]\n"
      << "  " << argv0 << " stats --design PATH\n"
      << "  " << argv0 << " corpus [--dir DIR]\n"
      << "  " << argv0
      << " sat-export --design PATH --fault N [--scheme NAME]\n"
      << "      [--chains N] [--ncp N] [--instance N] [--out PATH]\n"
      << "schemes: stuck_at|a external|b ncp|cpf|c (default) enhanced|d "
         "constrained|e\n";
  return 2;
}

/// Resolves a scheme name to the clocking capability + whether the
/// tester-cycle model should use on-chip clocking (arm-and-wait capture).
struct SchemeChoice {
  ClockingScheme scheme;
  bool on_chip = false;
};

std::optional<SchemeChoice> make_scheme(const std::string& name,
                                        size_t num_domains) {
  constexpr size_t kMaxPulses = 4;
  if (name == "stuck_at" || name == "a") {
    return SchemeChoice{scheme_stuck_at_external(num_domains), false};
  }
  if (name == "external" || name == "b") {
    return SchemeChoice{scheme_external_full(num_domains, kMaxPulses),
                        false};
  }
  if (name == "ncp" || name == "cpf" || name == "c") {
    return SchemeChoice{scheme_cpf_basic(num_domains), true};
  }
  if (name == "enhanced" || name == "d") {
    return SchemeChoice{scheme_cpf_enhanced(num_domains, kMaxPulses), true};
  }
  if (name == "constrained" || name == "e") {
    return SchemeChoice{scheme_external_constrained(num_domains,
                                                    kMaxPulses),
                        false};
  }
  return std::nullopt;
}

struct RunArgs {
  std::string design;
  std::string scheme = "ncp";
  std::string json_path;
  size_t chains = 2;
  size_t repeat = 1;
  EngineOptions engine;  // --shards/--atpg-shards/--sat-budget
  std::optional<uint64_t> seed;
  size_t random_rounds = 0;
  size_t edt_channels = 0;
  bool quiet = false;
};

// Strict `--flag value` parsing shared with the bench drivers
// (util/cli.h); malformed values print a usage message and exit 2.
using occ::parse_size_flag;

int cmd_run(const RunArgs& a) {
  const size_t repeat = a.repeat == 0 ? 1 : a.repeat;

  // Parse once up front: scheme construction needs the domain count (and
  // `occ run` reports parse errors before any pipeline work starts).
  // Timed -- and under --repeat re-parsed to the same sample count as
  // the session runs -- so the report's wall_ms block covers the parse
  // path with the same repeat-median semantics.
  std::vector<double> parse_walls;
  const auto time_parse = [&] {
    const auto tp0 = std::chrono::steady_clock::now();
    Netlist nl = read_bench_file(a.design);
    parse_walls.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - tp0)
            .count());
    return nl;
  };
  const Netlist parsed = time_parse();
  for (size_t i = 1; i < repeat; ++i) time_parse();
  const NetlistStats stats = NetlistStats::compute(parsed);
  const auto choice = make_scheme(a.scheme, parsed.num_domains());
  if (!choice) {
    std::cerr << "unknown scheme '" << a.scheme << "'\n";
    return 2;
  }

  // One design cache for the whole invocation: the first session's
  // prepare() parses, scan-inserts and freezes the compiled artifact
  // (cold); every later --repeat run fetches it back (warm) and skips
  // all of that. Results are bit-identical either way (asserted below).
  const auto cache = std::make_shared<DesignCache>();

  const auto configure = [&] {
    SessionConfig cfg;
    cfg.design_file(a.design)  // the session re-parses via its front door
        .design_cache(cache)
        .scheme(choice->scheme)
        .on_chip_clocking(choice->on_chip)
        .engine(a.engine);
    if (a.chains > 0) cfg.scan({.num_chains = a.chains});
    AtpgOptions opts;
    opts.random_rounds = a.random_rounds;
    cfg.atpg(opts);
    if (a.seed) cfg.seed(*a.seed);
    if (a.edt_channels > 0) cfg.compress({.channels = a.edt_channels});
    return cfg;
  };

  // `--repeat N`: the pipeline is deterministic in its seed, so extra
  // runs only firm up the wall-clock numbers (median reported). Each
  // run's prepare() is timed separately: run 0 is the cold artifact
  // build, later runs measure the cache's warm path.
  std::vector<double> prepare_walls;
  std::vector<double> session_walls;
  const auto run_once = [&] {
    Session s(configure());
    const auto tp0 = std::chrono::steady_clock::now();
    s.prepare();
    prepare_walls.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - tp0)
            .count());
    return s.run();
  };
  const SessionResult r = run_once();
  session_walls.push_back(r.seconds * 1e3);
  for (size_t i = 1; i < repeat; ++i) {
    const SessionResult again = run_once();
    OCC_CHECK(again.pattern_count() == r.pattern_count() &&
                  again.atpg.fsim.gate_evals == r.atpg.fsim.gate_evals &&
                  again.atpg.fsim.events_processed ==
                      r.atpg.fsim.events_processed,
              "occ run: results drifted across --repeat runs");
    session_walls.push_back(again.seconds * 1e3);
  }

  const double wall_ms_median = repeat_median(session_walls);
  const double prepare_cold_ms = prepare_walls[0];
  const double prepare_warm_ms =
      repeat > 1 ? repeat_median(std::vector<double>(
                       prepare_walls.begin() + 1, prepare_walls.end()))
                 : 0.0;

  if (!a.quiet) {
    std::cout << "design: " << a.design << "\n"
              << stats.to_string() << "\n"
              << "scheme: " << r.scheme.name << ", "
              << ShardedFaultSim::resolve_shards(a.engine.fsim.shards)
              << " fsim shard(s)\n\n"
              << r.summary();
    if (repeat > 1) {
      std::cout << "wall: " << wall_ms_median << " ms (median of "
                << repeat << " runs)\n";
    }
  }

  if (!a.json_path.empty()) {
    // Namespace the report by design so bench_ci.py merge can combine
    // several `occ run` reports without key collisions ("occ_run_s344c").
    std::string stem = a.design;
    if (const size_t slash = stem.find_last_of('/');
        slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (const size_t dot = stem.rfind('.'); dot != std::string::npos) {
      stem = stem.substr(0, dot);
    }
    Json meta = Json::object();
    meta.set("design", a.design);
    meta.set("netlist", r.netlist->name());
    meta.set("gates", r.netlist->size());
    meta.set("flops", r.netlist->dffs().size());
    meta.set("domains", r.netlist->num_domains());
    meta.set("scheme", r.scheme.name);
    meta.set("shards",
             ShardedFaultSim::resolve_shards(a.engine.fsim.shards));
    meta.set("atpg_shards",
             resolve_atpg_shards(
                 a.engine.atpg_shards,
                 ShardedFaultSim::resolve_shards(a.engine.fsim.shards)));
    meta.set("repeat", repeat);
    meta.set("test_coverage", r.test_coverage());
    meta.set("fault_coverage", r.fault_coverage());
    // Per-stage fault dispositions: auditable coverage accounting. The
    // proven_untestable column is excluded from the test-coverage
    // denominator (see FaultList::test_coverage).
    for (const StageDisposition& d : r.atpg.stage_dispositions) {
      const std::string p = "stage." + d.stage + ".";
      meta.set(p + "detected", d.detected);
      meta.set(p + "possibly_detected", d.possibly_detected);
      meta.set(p + "untestable", d.untestable);
      meta.set(p + "proven_untestable", d.proven_untestable);
      meta.set(p + "aborted", d.aborted);
      meta.set(p + "undetected", d.undetected);
    }
    Json metrics = Json::object();
    metrics.set("patterns", r.pattern_count());
    metrics.set("gate_evals", r.atpg.fsim.gate_evals);
    metrics.set("events_processed", r.atpg.fsim.events_processed);
    metrics.set("tester_cycles", r.tester_cycles);
    // wall_ms block: repeat-median walls, the same semantics the bench
    // drivers use, so external designs gate in CI like the generated
    // workloads. wall_s stays for backward compatibility (first run).
    metrics.set("wall_ms.parse", repeat_median(parse_walls));
    metrics.set("wall_ms.session", wall_ms_median);
    // Cold prepare = parse + scan insertion + frozen compiled artifact;
    // warm = median cache fetch across the remaining repeats (only
    // meaningful -- and only emitted -- with --repeat > 1).
    metrics.set("wall_ms.prepare_cold", prepare_cold_ms);
    if (repeat > 1) metrics.set("wall_ms.prepare_warm", prepare_warm_ms);
    metrics.set("wall_s", r.seconds);
    {
      const DesignCache::Stats cs = cache->stats();
      meta.set("cache.hits", cs.hits);
      meta.set("cache.misses", cs.misses);
      meta.set("cache.resident_bytes", cs.resident_bytes);
    }
    // Abort-ladder + SAT accounting: every session runs the SAT probe
    // on its cheap-PODEM aborts; refutations counts the probes that
    // proved their instance undetectable.
    meta.set("atpg.det.escalations", r.atpg.escalations);
    meta.set("atpg.det.sat_probe_wins", r.atpg.sat_probe_wins);
    {
      const SatStats& st = r.atpg.sat;
      meta.set("atpg.sat.learned_kept", st.learned_kept);
      metrics.set("atpg.sat.solves", st.solves);
      metrics.set("atpg.sat.conflicts", st.conflicts);
      metrics.set("atpg.sat.decisions", st.decisions);
      metrics.set("atpg.sat.propagations", st.propagations);
      metrics.set("atpg.sat.refutations", r.atpg.sat_refutations);
    }
    if (r.compression.enabled) {
      meta.set("edt.encoded", r.compression.encoded);
      meta.set("edt.ratio", r.compression.ratio());
    }
    if (!write_bench_report(a.json_path, "occ_run_" + stem,
                            std::move(meta), std::move(metrics))) {
      return 1;
    }
  }
  return 0;
}

struct SatExportArgs {
  std::string design;
  std::string scheme = "ncp";
  std::string out;  // empty = stdout
  size_t chains = 2;
  size_t fault = 0;
  bool have_fault = false;
  size_t ncp = 0;
  size_t instance = 0;
};

/// Dumps the DIMACS CNF of one collapsed fault's dual-rail miter --
/// the exact formula the SAT probe solves for that fault instance, over
/// the instance's support (byte-identical numbering, see sat/lower.h).
int cmd_sat_export(const SatExportArgs& a) {
  Netlist nl = read_bench_file(a.design);
  GateId scan_en = kNoGate;
  if (a.chains > 0) {
    scan_en = insert_scan(nl, {.num_chains = a.chains}).scan_en;
  }
  const auto choice = make_scheme(a.scheme, nl.num_domains());
  if (!choice) {
    std::cerr << "unknown scheme '" << a.scheme << "'\n";
    return 2;
  }
  const ClockingScheme& s = choice->scheme;
  const FaultList fl = FaultList::build(nl, s.model);
  if (a.fault >= fl.size()) {
    std::cerr << "--fault " << a.fault << " out of range: " << a.design
              << " has " << fl.size() << " collapsed faults\n";
    return 2;
  }
  if (a.ncp >= s.procedures.size()) {
    std::cerr << "--ncp " << a.ncp << " out of range: scheme " << s.name
              << " has " << s.procedures.size() << " procedures\n";
    return 2;
  }
  const Fault& f = fl.fault(a.fault);
  const UnrolledModel um(nl, s, static_cast<uint32_t>(a.ncp), scan_en);
  const auto instances = um.translate(f);
  if (instances.empty()) {
    std::cerr << "fault " << fault_to_string(nl, f)
              << " has no instance under procedure "
              << s.procedures[a.ncp].name << "\n";
    return 1;
  }
  if (a.instance >= instances.size()) {
    std::cerr << "--instance " << a.instance << " out of range: fault has "
              << instances.size() << " instance(s) in this procedure\n";
    return 2;
  }
  sat::CnfLowering low;
  if (!low.lower_fault(um, instances[a.instance])) {
    std::cerr << "fault " << fault_to_string(nl, f)
              << " has no observation point in its fanout cone; the miter "
                 "is trivially unsatisfiable (untestable here)\n";
    return 1;
  }
  const std::vector<std::string> comments = {
      "occ sat-export: dual-rail 01X fault miter (see sat/lower.h)",
      "design: " + a.design,
      "scheme: " + s.name + ", procedure " + std::to_string(a.ncp) + " (" +
          s.procedures[a.ncp].name + ")",
      "fault " + std::to_string(a.fault) + ": " + fault_to_string(nl, f) +
          ", instance " + std::to_string(a.instance) + " of " +
          std::to_string(instances.size()),
  };
  if (a.out.empty()) {
    low.cnf().write_dimacs(std::cout, comments);
  } else {
    std::ofstream os(a.out);
    OCC_CHECK(os.good(), "cannot open ", a.out, " for writing");
    low.cnf().write_dimacs(os, comments);
    OCC_CHECK(os.good(), "write failure on ", a.out);
    std::cout << "wrote " << a.out << " (" << low.cnf().num_vars
              << " vars, " << low.cnf().num_clauses() << " clauses)\n";
  }
  return 0;
}

int cmd_stats(const std::string& design) {
  const Netlist nl = read_bench_file(design);
  std::cout << "design: " << design << "\n"
            << NetlistStats::compute(nl).to_string() << "\n";
  return 0;
}

/// Writes one generated corpus circuit with a provenance header. The
/// parameters are committed here so `occ corpus` is reproducible
/// bit-for-bit (see circuits/README.md).
void write_corpus_circuit(const std::string& dir, const std::string& name,
                          const std::string& klass,
                          const gen::SocParams& prm) {
  Netlist nl = gen::generate_soc(prm);
  nl.set_name(name);
  const std::string path = dir + "/" + name + ".bench";
  std::ofstream os(path);
  OCC_CHECK(os.good(), "cannot open ", path, " for writing");
  os << "# " << name << ": " << klass << " synthetic circuit, generated\n"
     << "# by `occ corpus` (gen::generate_soc, seed " << prm.seed
     << "). Not an ISCAS'89 netlist; see circuits/README.md.\n";
  write_bench(nl, os);
  OCC_CHECK(os.good(), "write failure on ", path);
  std::cout << "wrote " << path << " ("
            << NetlistStats::compute(nl).to_string() << ")\n";
}

int cmd_corpus(const std::string& dir) {
  // s344-class: single domain, the shape of ISCAS'89 s344
  // (9 PI / 11 PO / 15 DFF / ~160 gates).
  gen::SocParams s344c;
  s344c.seed = 344;
  s344c.domains = 1;
  s344c.domain_share = {1.0};
  s344c.flops = 15;
  s344c.gates = 160;
  s344c.pis = 9;
  s344c.pos = 11;
  s344c.nonscan_fraction = 0.0;
  s344c.cross_domain_fraction = 0.0;
  write_corpus_circuit(dir, "s344c", "s344-class", s344c);

  // s1423-class: two domains, non-scan flops, cross-domain paths -- the
  // shape of ISCAS'89 s1423 (17 PI / 5 PO / 74 DFF / ~660 gates) with
  // the extended-dialect annotations the single-clock original lacks.
  gen::SocParams s1423c;
  s1423c.seed = 1423;
  s1423c.domains = 2;
  s1423c.domain_share = {0.4, 0.6};
  s1423c.flops = 74;
  s1423c.gates = 660;
  s1423c.pis = 17;
  s1423c.pos = 5;
  s1423c.nonscan_fraction = 0.05;
  s1423c.cross_domain_fraction = 0.06;
  write_corpus_circuit(dir, "s1423c", "s1423-class", s1423c);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage(argv[0]);
    return 0;
  }

  try {
    if (cmd == "run") {
      RunArgs a;
      for (int i = 2; i < argc; ++i) {
        const char* flag = argv[i];
        const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
        // Engine-selection flags are one shared vocabulary (util/cli.h).
        const int used = parse_engine_flag(flag, val, &a.engine);
        if (used < 0) return 2;
        if (used > 0) {
          i += used - 1;
          continue;
        }
        if (std::strcmp(flag, "--quiet") == 0) {
          a.quiet = true;
        } else if (std::strcmp(flag, "--design") == 0 && val) {
          a.design = val;
          ++i;
        } else if (std::strcmp(flag, "--scheme") == 0 && val) {
          a.scheme = val;
          ++i;
        } else if (std::strcmp(flag, "--json") == 0 && val) {
          a.json_path = val;
          ++i;
        } else if (std::strcmp(flag, "--repeat") == 0) {
          if (!parse_size_flag(flag, val, &a.repeat)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--chains") == 0) {
          if (!parse_size_flag(flag, val, &a.chains)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--random-rounds") == 0) {
          if (!parse_size_flag(flag, val, &a.random_rounds)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--edt") == 0) {
          if (!parse_size_flag(flag, val, &a.edt_channels)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--seed") == 0) {
          size_t s = 0;
          if (!parse_size_flag(flag, val, &s)) return 2;
          a.seed = s;
          ++i;
        } else {
          std::cerr << "unknown or incomplete flag '" << flag
                    << "' for run\n";
          return usage(argv[0]);
        }
      }
      if (a.design.empty()) {
        std::cerr << "run requires --design PATH\n";
        return usage(argv[0]);
      }
      return cmd_run(a);
    }
    if (cmd == "stats") {
      std::string design;
      for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--design") == 0) design = argv[i + 1];
      }
      if (design.empty()) {
        std::cerr << "stats requires --design PATH\n";
        return usage(argv[0]);
      }
      return cmd_stats(design);
    }
    if (cmd == "sat-export") {
      SatExportArgs a;
      for (int i = 2; i < argc; ++i) {
        const char* flag = argv[i];
        const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(flag, "--design") == 0 && val) {
          a.design = val;
          ++i;
        } else if (std::strcmp(flag, "--scheme") == 0 && val) {
          a.scheme = val;
          ++i;
        } else if (std::strcmp(flag, "--out") == 0 && val) {
          a.out = val;
          ++i;
        } else if (std::strcmp(flag, "--fault") == 0) {
          if (!parse_size_flag(flag, val, &a.fault)) return 2;
          a.have_fault = true;
          ++i;
        } else if (std::strcmp(flag, "--chains") == 0) {
          if (!parse_size_flag(flag, val, &a.chains)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--ncp") == 0) {
          if (!parse_size_flag(flag, val, &a.ncp)) return 2;
          ++i;
        } else if (std::strcmp(flag, "--instance") == 0) {
          if (!parse_size_flag(flag, val, &a.instance)) return 2;
          ++i;
        } else {
          std::cerr << "unknown or incomplete flag '" << flag
                    << "' for sat-export\n";
          return usage(argv[0]);
        }
      }
      if (a.design.empty() || !a.have_fault) {
        std::cerr << "sat-export requires --design PATH and --fault N\n";
        return usage(argv[0]);
      }
      return cmd_sat_export(a);
    }
    if (cmd == "corpus") {
      std::string dir = "circuits";
      for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--dir") == 0) dir = argv[i + 1];
      }
      return cmd_corpus(dir);
    }
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command '" << cmd << "'\n";
  return usage(argv[0]);
}
