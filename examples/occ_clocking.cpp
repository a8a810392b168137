// On-chip clocking walkthrough: the paper's core contribution.
//
// Builds the gate-level clock pulse filter, simulates the full ATE
// protocol at the waveform level, extracts the named capture procedure
// from the observed hardware pulses, shows the enhanced CPF's
// programmable bursts -- everything in section 3 of the paper -- and
// finally drives an occ::Session with the *extracted* NCP, closing the
// loop from hardware to ATPG.
#include <iostream>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "core/enhanced_cpf.h"
#include "core/verify.h"
#include "gen/circuits.h"

int main() {
  using namespace occ;

  std::cout << "--- 1. basic CPF: arm with one scan_clk pulse, get two "
               "at-speed pulses ---\n\n";
  CpfProtocolParams prm;
  prm.pll_period = 8;
  prm.shift_pulses = 3;
  const CpfProtocolResult basic = run_cpf_protocol(prm);
  std::cout << basic.wave.render_ascii(4) << "\n";
  std::cout << "check: " << (basic.ok ? "OK" : basic.detail) << "\n\n";

  std::cout << "--- 2. NCP extraction: behavioral clocking model from "
               "hardware pulses ---\n\n";
  const NamedCaptureProcedure ncp = ncp_from_pulse_times(
      basic.pulse_times, /*domain=*/0, /*at_speed_limit=*/prm.pll_period,
      "extracted_d0");
  std::cout << "extracted: " << ncp.to_string() << "\n";
  const ClockingScheme ref = scheme_cpf_basic(1);
  std::cout << "scheme factory equivalent: "
            << ref.procedures[0].to_string() << "\n";
  const bool equivalent =
      ncp.cycles.size() == ref.procedures[0].cycles.size() &&
      ncp.has_at_speed_pair();
  std::cout << "hardware matches the ATPG model: "
            << (equivalent ? "yes" : "NO") << "\n\n";

  std::cout << "--- 3. enhanced CPF: programmable pulse bursts ---\n\n";
  for (unsigned count : {2u, 3u, 4u}) {
    CpfProtocolParams ep;
    ep.enhanced = true;
    ep.pulse_count = count;
    ep.pll_period = 16;
    const CpfProtocolResult r = run_cpf_protocol(ep);
    std::cout << "program count=" << count << ": observed "
              << r.pulse_times.size() << " pulses ("
              << (r.ok ? "OK" : r.detail) << ")\n";
  }

  std::cout << "\n--- 4. inter-domain launch/capture programming ---\n\n";
  const PllModel pll = make_paper_pll();
  for (size_t from : {0u, 1u}) {
    const size_t to = 1 - from;
    const InterDomainProgram prog =
        interdomain_program(pll, from, to, /*arm_time=*/500);
    std::cout << "launch D" << from << " @" << prog.launch_time
              << " -> capture D" << to << " @" << prog.capture_time
              << " (gap " << prog.gap() << ", programs start="
              << prog.from_prog.start_sel << "/" << prog.to_prog.start_sel
              << ")\n";
  }

  std::cout << "\n--- 5. session driven by the extracted NCP ---\n\n";
  // The hardware-extracted procedure becomes a clocking scheme, and one
  // Session runs transition ATPG on a scan-inserted counter under it:
  // exactly what the paper's flow does with the CPF silicon.
  ClockingScheme extracted;
  extracted.name = "extracted_cpf";
  extracted.model = FaultModel::kTransition;
  extracted.scan_en_frozen = true;
  extracted.procedures.push_back(ncp);
  SessionConfig cfg;
  cfg.design(gen::make_counter(6))
      .scan({.num_chains = 1})
      .scheme(extracted)
      .on_chip_clocking(true);
  const SessionResult sres = Session(std::move(cfg)).run();
  std::cout << sres.summary();

  return basic.ok && sres.pattern_count() > 0 ? 0 : 1;
}
