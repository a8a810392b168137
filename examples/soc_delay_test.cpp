// Full two-domain SOC delay-test flow, end to end, as two Sessions over
// one shared scan-inserted design:
// generate SOC -> insert scan -> transition ATPG under the basic-CPF and
// enhanced-CPF clocking schemes -> compare coverage and ATE cost (the
// sessions compute tester cycles themselves) -> export the ATE program
// through a sink -> verify one generated pattern through the *real* scan
// protocol (shift / capture / unload on the cycle-accurate simulator).
#include <iomanip>
#include <iostream>
#include <sstream>

#include "api/session.h"
#include "dft/protocol.h"
#include "gen/socgen.h"
#include "netlist/stats.h"

int main() {
  using namespace occ;
  std::cout << std::fixed << std::setprecision(2);

  gen::SocParams prm;
  prm.seed = 7;
  prm.flops = 120;
  prm.gates = 1200;
  Netlist nl = gen::generate_soc(prm);
  const ScanChains chains = insert_scan(nl, {.num_chains = 4});
  std::cout << "SOC: " << NetlistStats::compute(nl).to_string() << "\n\n";

  AtpgOptions opts;
  opts.random_rounds = 8;
  const size_t nd = nl.num_domains();

  // ATE program export rides along as a sink on the basic-CPF session
  // (paper section 4: internal pulses converted back to the
  // scan_clk/scan_en sequence that produces them).
  std::ostringstream ate_text;
  auto ate_sink = std::make_shared<AteProgramSink>(ate_text, true);

  auto run_scheme = [&](ClockingScheme scheme, bool with_ate) {
    SessionConfig cfg;
    cfg.design(nl).chains(chains).scheme(std::move(scheme)).atpg(opts)
        .on_chip_clocking(true);
    if (with_ate) cfg.sink(ate_sink);
    return Session(std::move(cfg)).run();
  };

  const SessionResult basic = run_scheme(scheme_cpf_basic(nd), true);
  const SessionResult enhanced =
      run_scheme(scheme_cpf_enhanced(nd, 4), false);

  std::cout << "basic CPF    : " << basic.atpg.summary() << "\n";
  std::cout << "enhanced CPF : " << enhanced.atpg.summary() << "\n";
  std::cout << "coverage recovered by the enhanced CPF: "
            << (enhanced.fault_coverage() - basic.fault_coverage()) * 100
            << "% (multi-pulse init + inter-domain tests)\n\n";

  // ATE cost model (computed by the sessions).
  std::cout << "ATE cycles, basic   : " << basic.tester_cycles << "\n";
  std::cout << "ATE cycles, enhanced: " << enhanced.tester_cycles << "\n\n";

  std::cout << "ATE program (basic CPF): " << ate_sink->last_program_cycles()
            << " tester cycles -- only scan_clk/scan_en control the "
               "capture\n\n";

  // Ground-truth check: apply the first enhanced pattern through real
  // shifting and compare with the abstract expected response.
  if (!enhanced.atpg.patterns.empty()) {
    const TestPattern& p = enhanced.atpg.patterns[0];
    const NamedCaptureProcedure& ncp =
        enhanced.scheme.procedures[p.ncp_index];
    NcpFaultSim fsim(nl, enhanced.scheme, chains.scan_en);
    PatternSet ps("v");
    ps.add(p);
    PatternBatch b = pack_batch(ps, 0, 1, nl, ncp);
    fsim.simulate_good(b);
    const std::vector<V3> expect = fsim.expected_unload(0);
    ScanProtocol proto(nl, chains);
    const ProtocolResult pr = proto.apply(p, ncp, true);
    // The abstraction is conservative: non-scan state is X at load, while
    // real shifting leaves non-scan cells with concrete (churned) values.
    // Wherever the abstract model predicts a value, the hardware-level
    // protocol must agree; abstract X cells are unpredicted by design.
    size_t mismatches = 0, predicted = 0;
    for (size_t i = 0; i < expect.size(); ++i) {
      if (expect[i] == V3::kX) continue;
      ++predicted;
      mismatches += pr.unload[i] != expect[i];
    }
    std::cout << "protocol cross-check: pattern 0 unload matches the "
                 "abstract model in "
              << predicted - mismatches << "/" << predicted
              << " predicted scan cells ("
              << expect.size() - predicted
              << " conservatively unpredicted)\n";
    return mismatches == 0 ? 0 : 1;
  }
  return 0;
}
