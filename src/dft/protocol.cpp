#include "dft/protocol.h"

#include "util/check.h"

namespace occ {

ScanProtocol::ScanProtocol(const Netlist& nl, const ScanChains& chains)
    : nl_(&nl), chains_(&chains), sim_(nl), scan_order_(scan_cells(nl)) {}

ProtocolResult ScanProtocol::apply(const TestPattern& p,
                                   const NamedCaptureProcedure& ncp,
                                   bool scan_en_frozen) {
  ProtocolResult res;
  const size_t shift_len = chains_->max_length();
  const auto& pis = nl_->inputs();

  // Power-up X, then shift in: scan_en = 1, all domains pulse on the
  // (slow) shift clock; chain inputs stream the load data, scan-in side
  // cell receives the last bit.
  sim_.reset_x();
  sim_.set_inputs_x();
  sim_.set_input(chains_->scan_en, Val64::all1());

  // Precompute per-cell chain slots once.
  std::vector<ScanChains::Slot> slots(scan_order_.size());
  for (size_t i = 0; i < scan_order_.size(); ++i) {
    slots[i] = chains_->slot_of(scan_order_[i]);
  }
  // load value by (chain, position).
  std::vector<std::vector<V3>> chain_data(chains_->chains.size());
  for (size_t c = 0; c < chains_->chains.size(); ++c) {
    chain_data[c].assign(chains_->chains[c].cells.size(), V3::kX);
  }
  for (size_t i = 0; i < scan_order_.size(); ++i) {
    chain_data[slots[i].chain][slots[i].position] = p.load[i];
  }

  for (size_t cyc = 0; cyc < shift_len; ++cyc) {
    // Position 0 (nearest scan-in) holds the LAST bit fed, so chain c's
    // data occupies the final len_c shift cycles; shorter chains idle
    // (pad) during the leading cycles, exactly like real ATE operation.
    for (size_t c = 0; c < chains_->chains.size(); ++c) {
      const size_t len = chains_->chains[c].cells.size();
      V3 bit = V3::k0;  // pad
      if (cyc >= shift_len - len) {
        const size_t k = cyc - (shift_len - len);  // chain-local cycle
        bit = chain_data[c][len - 1 - k];
      }
      sim_.set_input(chains_->chains[c].scan_in, Val64::broadcast(bit));
    }
    sim_.pulse(kAllDomains);  // shift clock pulses every domain
  }
  res.shift_cycles = shift_len;

  // Verify the load arrived (debug-level safety).
  for (size_t i = 0; i < scan_order_.size(); ++i) {
    OCC_DCHECK(sim_.state(scan_order_[i]).get(0) == p.load[i] ||
               p.load[i] == V3::kX);
  }

  // Capture phase.
  sim_.set_input(chains_->scan_en,
                 scan_en_frozen ? Val64::all0() : Val64::all0());
  for (size_t f = 0; f < ncp.cycles.size(); ++f) {
    if (f == 0 || ncp.cycles[f].pi_change) {
      for (size_t i = 0; i < pis.size(); ++i) {
        if (pis[i] == chains_->scan_en) continue;
        bool is_si = false;
        for (const auto& ch : chains_->chains) {
          if (ch.scan_in == pis[i]) {
            is_si = true;
            break;
          }
        }
        if (is_si) continue;  // chain inputs idle during capture
        sim_.set_input(pis[i], Val64::broadcast(p.pi_frames[f][i]));
      }
    }
    sim_.eval();
    if (ncp.cycles[f].po_strobe) {
      std::vector<V3> pov;
      for (GateId po : nl_->outputs()) {
        pov.push_back(sim_.value(po).get(0));
      }
      res.strobes.emplace_back(f, std::move(pov));
    }
    sim_.capture(ncp.cycles[f].pulses);
    ++res.capture_cycles;
  }

  // Unload (no interleaved next load here; shift out and read).
  res.unload.assign(scan_order_.size(), V3::kX);
  sim_.set_input(chains_->scan_en, Val64::all1());
  // Read each cell's value by direct state inspection after capture --
  // then verify against real shifting through the scan-out pins.
  std::vector<V3> direct(scan_order_.size());
  for (size_t i = 0; i < scan_order_.size(); ++i) {
    direct[i] = sim_.state(scan_order_[i]).get(0);
  }
  for (size_t cyc = 0; cyc < shift_len; ++cyc) {
    // Cell at position pos of chain c appears at scan-out after
    // (len-1-pos) shifts: read before each pulse.
    sim_.eval();
    for (size_t c = 0; c < chains_->chains.size(); ++c) {
      const auto& ch = chains_->chains[c];
      const size_t len = ch.cells.size();
      if (cyc < len) {
        // Value visible at scan-out now belongs to cell (len-1-cyc).
        const GateId cell = ch.cells[len - 1 - cyc];
        const V3 seen = sim_.value(ch.scan_out).get(0);
        // Map back to scan order.
        for (size_t i = 0; i < scan_order_.size(); ++i) {
          if (scan_order_[i] == cell) {
            res.unload[i] = seen;
            break;
          }
        }
      }
      sim_.set_input(ch.scan_in, Val64::all0());
    }
    sim_.pulse(kAllDomains);
  }
  res.shift_cycles += shift_len;

  // The shifted-out response must equal the direct state readout.
  for (size_t i = 0; i < scan_order_.size(); ++i) {
    OCC_CHECK(res.unload[i] == direct[i],
              "scan unload mismatch at cell ", i,
              " (shift path corrupts response?)");
  }
  return res;
}

size_t tester_cycles(const ScanChains& chains,
                     const NamedCaptureProcedure& ncp,
                     bool on_chip_clocking) {
  return chains.max_length() + ncp_tester_cycles(ncp, on_chip_clocking);
}

size_t total_tester_cycles(const ScanChains& chains, const PatternSet& ps,
                           const std::vector<NamedCaptureProcedure>& ncps,
                           bool on_chip_clocking) {
  size_t total = 0;
  for (const TestPattern& p : ps) {
    total += tester_cycles(chains, ncps[p.ncp_index], on_chip_clocking);
  }
  // Final unload.
  if (!ps.empty()) total += tester_cycles(chains, ncps[0], on_chip_clocking);
  return total;
}

}  // namespace occ
