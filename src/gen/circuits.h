// Classic small circuits for tests, examples and calibration.
#pragma once

#include "netlist/netlist.h"

namespace occ {
namespace gen {

/// ISCAS-85 c17: 5 PIs, 2 POs, 6 NAND gates. The canonical ATPG smoke
/// test (fully testable, 22 collapsed stuck-at faults).
Netlist make_c17();

/// N-bit ripple-carry adder: PIs a[N], b[N], cin; POs sum[N], cout.
Netlist make_adder(size_t bits);

/// N-bit synchronous counter with enable (single domain, flops with
/// feedback) -- exercises sequential ATPG and scan insertion.
Netlist make_counter(size_t bits, DomainId domain = 0);

/// 4-bit ALU slice: op(2) selects AND/OR/XOR/ADD over a[4], b[4].
Netlist make_alu4();

/// Parity tree over n inputs (XOR-dominated cone).
Netlist make_parity(size_t n);

/// Two-domain handshake: domain 0 produces a registered value consumed
/// by domain-1 flops through combinational glue -- the smallest circuit
/// with genuine inter-domain paths (for inter-domain test development).
Netlist make_two_domain_link(size_t width);

/// A circuit with a non-scan shadow register: flops marked kFlagNoScan
/// that must be initialized via clock-sequential patterns.
Netlist make_shadow_register(size_t width);

/// Two XOR trees over the same `width` PIs feeding a miter XOR `m`: m is
/// constant 0 under every assignment, but no gate on the way has a
/// controlling side value, so neither the dominator prune nor a single
/// implication can shortcut the proof -- PODEM must exhaust the input
/// space. A scan flop captures the OR(m, side) output so scan-observing
/// schemes see the cone too. With `skewed` the second tree is a chain
/// over the inputs in reverse order: the same parity, bracketed
/// differently, which CDCL refutes only by real search. Under scheme
/// (a) with a starved PODEM (1 or 30 backtracks), widths 16 and 20 to 32
/// leave redundant faults that outlast a 2,000-conflict SAT probe (24
/// leaves 6, 28 leaves 8); widths 12, 14 and 18 leave none (measured).
Netlist make_xor_miter(size_t width, bool skewed = false);

}  // namespace gen
}  // namespace occ
