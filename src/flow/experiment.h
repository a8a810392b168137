// Table-1 experiment harness: builds the synthetic SOC, inserts scan,
// and runs the five ATPG experiments (a)..(e) of the paper under their
// respective clocking schemes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "dft/scan.h"
#include "fsim/options.h"
#include "gen/socgen.h"

namespace occ {

class DesignCache;

namespace flow {

struct Table1Config {
  gen::SocParams soc;
  /// When non-empty, the experiments run on this parsed extended-dialect
  /// `.bench` design instead of the generated SOC (`soc` is then
  /// ignored); scan insertion and the five schemes apply identically.
  std::string design_path;
  size_t scan_chains = 8;
  size_t max_pulses = 4;
  AtpgOptions atpg;
  bool classify_leftovers = true;
  /// Engine selection forwarded to each experiment's Session (fsim and
  /// PODEM shards, the SAT probe's conflict budget); results are
  /// identical for every shard count.
  EngineOptions engine;
  /// Optional shared design cache (api/compiled_design.h). With one
  /// attached, every repeat of a configuration reuses the frozen
  /// per-scheme compiled artifacts of the first; results are
  /// bit-identical with or without it.
  std::shared_ptr<DesignCache> cache;
};

struct ExperimentRow {
  std::string id;    // "(a)" .. "(e)"
  std::string desc;  // short description for the table
  bool on_chip_clocking = false;
  AtpgRunResult result;
  size_t tester_cycles = 0;
};

struct ShapeCheck {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct Table1Result {
  Netlist netlist;  // scan-inserted SOC the experiments ran on
  ScanChains chains;
  std::vector<ExperimentRow> rows;
  std::vector<ShapeCheck> checks;

  /// Lookup by experiment letter ('a'..'e'); nullptr when that
  /// experiment was not run.
  const ExperimentRow* find_row(char id) const;
  bool has_row(char id) const { return find_row(id) != nullptr; }

  /// Checked lookup: throws CheckError naming the missing id and the
  /// ids actually present (partial runs are legal, see check_shapes).
  const ExperimentRow& row(char id) const;

  bool all_shapes_hold() const;
};

/// Runs all five experiments. This is the heavy entry point behind
/// bench_table1 (minutes on the default SOC size).
Table1Result run_table1(const Table1Config& cfg);

/// Evaluates the paper's qualitative claims on a finished run:
///   TC(a) > TC(b) > TC(e) >= TC(d) > TC(c) (with (d)-(c) small positive),
///   P(b) >> P(a); P(c),P(d) > P(b); P(e) < P(d).
/// The two quantitative margins (the (e)>=(d) dominance slack and the
/// required P(b)/P(a) inflation ratio) are scale-aware: they relax
/// with the run's fault count / logic-gate count so the checks hold on
/// miniature SOCs (bench_table1 --quick) and converge to the paper's
/// thresholds at full scale. A partial run (missing experiment rows)
/// yields a single failed check naming the missing ids instead of
/// throwing.
std::vector<ShapeCheck> check_shapes(const Table1Result& r);

}  // namespace flow
}  // namespace occ
