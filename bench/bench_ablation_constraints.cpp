// Ablation A2: root-cause split of the (b) -> (c) coverage drop.
//
// The paper (section 6): "Circuit development will concentrate on
// further analysis of root causes for design related coverage
// reduction." This bench turns each CPF-induced constraint off one at a
// time, starting from the ideal external reference (b):
//   - mask POs only,
//   - freeze PIs only,
//   - per-domain clocking only (no inter-domain, no common capture),
//   - exactly two pulses only,
// and reports each constraint's individual coverage cost.
#include <iomanip>
#include <iostream>

#include "api/session.h"
#include "dft/scan.h"
#include "gen/socgen.h"

namespace {

using namespace occ;

ClockingScheme make_scheme(size_t nd, size_t max_pulses, bool mask_pos,
                           bool freeze_pis, bool per_domain,
                           const std::string& name) {
  ClockingScheme s;
  s.name = name;
  s.model = FaultModel::kTransition;
  s.scan_en_frozen = true;
  const DomainMask all = (DomainMask{1} << nd) - 1;
  std::vector<DomainMask> groups;
  if (per_domain) {
    for (size_t d = 0; d < nd; ++d) groups.push_back(DomainMask{1} << d);
  } else {
    groups.push_back(all);
  }
  for (DomainMask m : groups) {
    for (size_t n = 2; n <= max_pulses; ++n) {
      NamedCaptureProcedure p;
      p.name = name + "_m" + std::to_string(m) + "_b" + std::to_string(n);
      for (size_t k = 0; k < n; ++k) {
        p.cycles.push_back({.pulses = m,
                            .pi_change = k == 0 || !freeze_pis,
                            .po_strobe = !mask_pos,
                            .at_speed = k > 0});
      }
      s.procedures.push_back(std::move(p));
    }
  }
  s.validate();
  return s;
}

}  // namespace

int main() {
  using namespace occ;
  std::cout << "=== Ablation: which CPF constraint costs how much "
               "coverage? ===\n\n";

  gen::SocParams prm;
  prm.seed = 20050307;
  prm.flops = 160;
  prm.gates = 1600;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 4});
  const GateId se = nl.find("scan_en");
  const size_t nd = nl.num_domains();

  AtpgOptions opts;
  opts.random_rounds = 12;

  struct Row {
    const char* name;
    ClockingScheme scheme;
  };
  std::vector<Row> rows;
  rows.push_back({"(b) ideal external reference",
                  make_scheme(nd, 4, false, false, false, "ref")});
  rows.push_back({"+ POs masked",
                  make_scheme(nd, 4, true, false, false, "pom")});
  rows.push_back({"+ PIs frozen",
                  make_scheme(nd, 4, false, true, false, "pif")});
  rows.push_back({"+ per-domain clocking",
                  make_scheme(nd, 4, false, false, true, "pdc")});
  rows.push_back({"+ only two pulses",
                  make_scheme(nd, 2, false, false, false, "2p")});
  rows.push_back({"all constraints (= basic CPF, exp (c))",
                  make_scheme(nd, 2, true, true, true, "all")});

  std::cout << std::fixed << std::setprecision(2);
  std::cout << std::left << std::setw(42) << "configuration" << std::right
            << std::setw(8) << "FC%" << std::setw(10) << "dFC%"
            << std::setw(10) << "patterns" << "\n";
  std::cout << std::string(70, '-') << "\n";
  double ref_fc = 0;
  double all_fc = 0, sum_delta = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    SessionConfig cfg;
    cfg.design(nl).scan_en(se).scheme(rows[i].scheme).atpg(opts);
    const AtpgRunResult r = Session(std::move(cfg)).run().atpg;
    const double fc = r.fault_coverage() * 100;
    if (i == 0) ref_fc = fc;
    if (i == rows.size() - 1) all_fc = fc;
    if (i > 0 && i < rows.size() - 1) sum_delta += ref_fc - fc;
    std::cout << std::left << std::setw(42) << rows[i].name << std::right
              << std::setw(8) << fc << std::setw(10) << fc - ref_fc
              << std::setw(10) << r.pattern_count() << "\n";
  }
  std::cout << "\nsum of individual constraint costs: " << sum_delta
            << "% vs combined cost " << ref_fc - all_fc
            << "% (overlap between constraints explains the gap)\n";
  return 0;
}
