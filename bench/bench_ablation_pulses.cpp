// Ablation A1: coverage and pattern count vs maximum CPF pulse count.
//
// The paper's enhanced CPF supports 2..4 pulses; this bench isolates the
// value of each extra pulse (clock-sequential initialization depth) by
// running the per-domain-burst scheme with max_pulses = 2, 3, 4 on the
// same SOC. The 2-pulse row equals experiment (c) plus inter-domain
// procedures disabled; deltas show where the paper's +0.6% comes from.
#include <iomanip>
#include <iostream>

#include "api/session.h"
#include "dft/scan.h"
#include "gen/socgen.h"

int main() {
  using namespace occ;
  std::cout << "=== Ablation: coverage vs CPF pulse count ===\n\n";

  gen::SocParams prm;
  prm.seed = 20050307;
  prm.flops = 160;
  prm.gates = 1600;
  prm.nonscan_fraction = 0.08;  // emphasize clock-sequential effects
  // One shared scan-inserted SOC; each pulse-count variant is one
  // Session over a copy of it (nothing is re-generated per run).
  Netlist nl = gen::generate_soc(prm);
  const ScanChains chains = insert_scan(nl, {.num_chains = 4});
  const size_t nd = nl.num_domains();

  AtpgOptions opts;
  opts.random_rounds = 12;

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "pulses   FC%      TC%      patterns  untestable\n";
  std::cout << "------------------------------------------------\n";

  double prev_fc = 0;
  bool monotone = true;
  for (size_t maxp = 2; maxp <= 4; ++maxp) {
    // Per-domain bursts only (no inter-domain), isolating pulse count.
    ClockingScheme s;
    s.name = "burst" + std::to_string(maxp);
    s.model = FaultModel::kTransition;
    s.scan_en_frozen = true;
    for (size_t d = 0; d < nd; ++d) {
      for (size_t n = 2; n <= maxp; ++n) {
        NamedCaptureProcedure p;
        p.name = "d" + std::to_string(d) + "_b" + std::to_string(n);
        for (size_t k = 0; k < n; ++k) {
          p.cycles.push_back({.pulses = DomainMask{1} << d,
                              .pi_change = k == 0,
                              .po_strobe = false,
                              .at_speed = k > 0});
        }
        s.procedures.push_back(std::move(p));
      }
    }
    SessionConfig cfg;
    cfg.design(nl).chains(chains).scheme(s).atpg(opts)
        .on_chip_clocking(true);
    const SessionResult sres = Session(std::move(cfg)).run();
    const AtpgRunResult& r = sres.atpg;
    std::cout << "  " << maxp << "     " << r.fault_coverage() * 100
              << "    " << r.test_coverage() * 100 << "    " << std::setw(6)
              << r.pattern_count() << "    " << std::setw(6)
              << r.faults.count(FaultStatus::kUntestable) << "\n";
    monotone = monotone && r.fault_coverage() + 1e-9 >= prev_fc;
    prev_fc = r.fault_coverage();
  }
  std::cout << "\ncoverage monotone in pulse count: "
            << (monotone ? "yes (extra init pulses only help)" : "NO")
            << "\n";
  return monotone ? 0 : 1;
}
