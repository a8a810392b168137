// Quickstart: one occ::Session from design to graded patterns.
//
//   $ ./example_quickstart
//
// The Session facade runs the whole pipeline -- netlist construction,
// scan insertion, fault-list creation, test generation, compaction and
// fault grading -- from a single builder-style configuration and returns
// one SessionResult with coverage, pattern counts and ATE cost. See
// api/session.h; the other examples plug in compression, ATE export and
// custom clocking schemes the same way.
#include <iostream>

#include "api/session.h"
#include "gen/circuits.h"
#include "netlist/stats.h"

int main() {
  using namespace occ;

  // 1. Configure the scenario: an 8-bit counter (or your own netlist,
  //    or a .bench file via design_file()), 2 scan chains, the
  //    stuck-at external-clock scheme of paper experiment (a), and a
  //    short random-pattern stage before deterministic PODEM.
  AtpgOptions opts;
  opts.random_rounds = 4;
  SessionConfig cfg;
  cfg.design(gen::make_counter(8))
      .scan({.num_chains = 2})
      .scheme(scheme_stuck_at_external(1))
      .atpg(opts);

  // 2. Run it. Stages report through the observer; sinks could stream
  //    reports or ATE programs (see compression_flow / soc_delay_test).
  cfg.observer([](const ProgressEvent& e) {
    if (e.kind == ProgressEvent::Kind::kStageBegin) {
      std::cout << "[stage] " << e.stage << "\n";
    }
  });
  const SessionResult result = Session(std::move(cfg)).run();

  // 3. Results.
  std::cout << "\ndesign: "
            << NetlistStats::compute(*result.netlist).to_string() << "\n";
  std::cout << "scan: " << result.chains.chains.size()
            << " chains, max length " << result.chains.max_length()
            << "\n";
  std::cout << result.scheme.to_string() << "\n";
  std::cout << result.summary();
  std::cout << "fault list: " << result.atpg.faults.summary() << "\n";

  // 4. Inspect the first pattern.
  if (!result.atpg.patterns.empty()) {
    const TestPattern& p = result.atpg.patterns[0];
    std::cout << "\nfirst pattern (NCP "
              << result.scheme.procedures[p.ncp_index].name << "):\n  load=";
    for (V3 v : p.load) std::cout << v3_char(v);
    std::cout << "\n  pi  =";
    for (V3 v : p.pi_frames[0]) std::cout << v3_char(v);
    std::cout << "\n";
  }
  return result.fault_coverage() > 0.9 ? 0 : 1;
}
