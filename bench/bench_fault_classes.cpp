// Ablation A5: fault classification of transition-untestable faults.
//
// Implements the paper's section-6 proposal: "classify and group these
// faults as non-functional scan path, low-speed and other faults that
// cannot cause the device to fail at-speed operation" -- the faults that
// make transition coverage "appear lower than the actual quality of the
// test". Runs experiment (c) and attributes every undetected fault to a
// structural class.
#include <iomanip>
#include <iostream>

#include "api/session.h"
#include "fsim/tfsim.h"
#include "gen/socgen.h"

int main() {
  using namespace occ;
  std::cout << "=== Fault classification of transition-undetected faults "
               "(paper section 6) ===\n\n";

  gen::SocParams prm;
  prm.seed = 20050307;
  prm.flops = 160;
  prm.gates = 1600;
  prm.nonscan_fraction = 0.08;
  prm.po_only_fraction = 0.25;

  AtpgOptions opts;
  opts.random_rounds = 12;
  opts.classify = true;
  SessionConfig cfg;
  cfg.design(gen::generate_soc(prm))
      .scan({.num_chains = 4})
      .scheme(scheme_cpf_basic(prm.domains))
      .atpg(opts)
      .on_chip_clocking(true);
  const SessionResult sres = Session(std::move(cfg)).run();
  const AtpgRunResult& r = sres.atpg;

  std::cout << "experiment (c) on this SOC: " << r.summary() << "\n\n";
  const FaultClassReport& c = r.classes;
  std::cout << std::fixed << std::setprecision(2);
  const double n = static_cast<double>(c.total_classified);
  std::cout << "undetected faults classified: " << c.total_classified
            << "\n";
  std::cout << "  non-functional scan path : " << std::setw(5)
            << c.scan_path << "  (" << 100 * c.scan_path / n << "%)\n";
  std::cout << "  PO-masked                : " << std::setw(5)
            << c.po_masked << "  (" << 100 * c.po_masked / n << "%)\n";
  std::cout << "  needs non-scan state     : " << std::setw(5)
            << c.non_scan_x << "  (" << 100 * c.non_scan_x / n << "%)\n";
  std::cout << "  inter-domain only        : " << std::setw(5)
            << c.inter_domain << "  (" << 100 * c.inter_domain / n
            << "%)\n";
  std::cout << "  tied/constant            : " << std::setw(5)
            << c.constant << "  (" << 100 * c.constant / n << "%)\n";
  std::cout << "  low-speed (PI-launched)  : " << std::setw(5)
            << c.low_speed << "  (" << 100 * c.low_speed / n << "%)\n";
  std::cout << "  unexplained              : " << std::setw(5)
            << c.unexplained << "  (" << 100 * c.unexplained / n << "%)\n";

  const size_t explained = c.total_classified - c.unexplained;
  std::cout << "\n" << 100.0 * explained / n
            << "% of the coverage shortfall is attributable to known "
               "at-speed-benign classes\n";
  std::cout << "(the paper: reporting these separately makes the "
               "transition coverage reflect actual test quality)\n";
  return 0;
}
