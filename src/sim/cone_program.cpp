#include "sim/cone_program.h"

#include <algorithm>

#include "util/check.h"

namespace occ {

FrameObs build_frame_obs(const Netlist& nl, const NamedCaptureProcedure& ncp) {
  const auto& dffs = nl.dffs();
  const size_t frames = ncp.cycles.size();

  FrameObs fo;
  fo.live.assign(frames, std::vector<uint8_t>(nl.size(), 0));
  fo.capture.assign(frames, std::vector<uint8_t>(dffs.size(), 0));

  // Union of live nets over all later frames: a flop whose output net is
  // live later keeps its current-frame capture observable.
  std::vector<uint8_t> future(nl.size(), 0);
  std::vector<GateId> work;

  for (size_t f = frames; f-- > 0;) {
    const CaptureCycle& cyc = ncp.cycles[f];
    auto& live = fo.live[f];
    work.clear();
    auto mark = [&](GateId g) {
      if (!live[g]) {
        live[g] = 1;
        work.push_back(g);
      }
    };

    // Observation points of this frame.
    if (cyc.po_strobe) {
      for (GateId po : nl.outputs()) mark(po);
    }
    for (size_t i = 0; i < dffs.size(); ++i) {
      const Gate& ff = nl.gate(dffs[i]);
      if (!(cyc.pulses & (DomainMask{1} << ff.domain))) continue;
      if ((ff.flags & kFlagScan) || future[dffs[i]]) {
        fo.capture[f][i] = 1;
        mark(ff.fanin[0]);
      }
    }

    // Backward combinational closure (flop outputs terminate the cone:
    // their corruption belongs to the frame that captured it).
    while (!work.empty()) {
      const GateId g = work.back();
      work.pop_back();
      const Gate& gate = nl.gate(g);
      if (is_sequential(gate.type)) continue;
      for (GateId in : gate.fanin) mark(in);
    }

    for (size_t g = 0; g < nl.size(); ++g) future[g] |= live[g];
  }
  return fo;
}

ConeProgram compile_cone_program(const Netlist& nl,
                                 const NamedCaptureProcedure& ncp,
                                 const FrameObs& obs) {
  const auto& dffs = nl.dffs();
  const size_t frames = ncp.cycles.size();
  OCC_CHECK(obs.live.size() == frames, "FrameObs does not match NCP");

  ConeProgram prog;
  prog.frames.resize(frames);

  for (size_t f = 0; f < frames; ++f) {
    const CaptureCycle& cyc = ncp.cycles[f];
    const std::vector<uint8_t>& live = obs.live[f];
    FrameProgram& fp = prog.frames[f];

    // Dense ids in topological (non-decreasing level) order over the
    // frame's live gates.
    fp.dense_of.assign(nl.size(), -1);
    for (const GateId g : nl.topo_order()) {
      if (!live[g]) continue;
      fp.dense_of[g] = static_cast<int32_t>(fp.gate_of.size());
      fp.gate_of.push_back(g);
    }
    fp.num_nodes = static_cast<uint32_t>(fp.gate_of.size());
    prog.max_nodes = std::max(prog.max_nodes, fp.num_nodes);

    fp.nodes.assign(fp.num_nodes + 1, ConeNode{});

    // Capture probe slots: node -> pulsed flops reading its net as D.
    std::vector<uint32_t> dfeed_count(fp.num_nodes, 0);
    for (size_t i = 0; i < dffs.size(); ++i) {
      const Gate& ff = nl.gate(dffs[i]);
      if (!(cyc.pulses & (DomainMask{1} << ff.domain))) continue;
      const int32_t dn = fp.dense_of[ff.fanin[0]];
      if (dn >= 0) ++dfeed_count[static_cast<size_t>(dn)];
    }

    uint32_t fanin_pool_size = 0;
    uint32_t fanout_size = 0;
    uint32_t dfeed_size = 0;
    for (uint32_t n = 0; n < fp.num_nodes; ++n) {
      const Gate& gate = nl.gate(fp.gate_of[n]);
      ConeNode& rec = fp.nodes[n];
      rec.op = static_cast<uint8_t>(gate.type);
      rec.po_probe = gate.type == GateType::kOutput && cyc.po_strobe;

      // Level-0 nodes (sources, flop outputs) are operand-only: the
      // sweep never evaluates them, so they carry no operands.
      const bool evaluable = gate.level >= 1;
      OCC_CHECK(!evaluable || !is_sequential(gate.type),
                "evaluable cone node must be combinational");
      rec.nf = evaluable ? static_cast<uint16_t>(gate.fanin.size()) : 0;
      if (rec.nf > 2) fanin_pool_size += rec.nf;

      // Canonicalize the common cells into branch-light mask-driven
      // classes (see ConeOpClass).
      rec.cls = ConeOpClass::kGeneric;
      if (rec.nf == 2) {
        switch (gate.type) {
          case GateType::kAnd:
            rec.cls = ConeOpClass::kAnd2;
            break;
          case GateType::kNand:
            rec.cls = ConeOpClass::kAnd2;
            rec.inv_out = 0xFF;
            break;
          case GateType::kOr:
            rec.cls = ConeOpClass::kAnd2;
            rec.inv_in = rec.inv_out = 0xFF;
            break;
          case GateType::kNor:
            rec.cls = ConeOpClass::kAnd2;
            rec.inv_in = 0xFF;
            break;
          case GateType::kXor:
            rec.cls = ConeOpClass::kXor2;
            break;
          case GateType::kXnor:
            rec.cls = ConeOpClass::kXor2;
            rec.inv_out = 0xFF;
            break;
          default:
            break;
        }
      } else if (rec.nf == 1) {
        switch (gate.type) {
          case GateType::kBuf:
          case GateType::kOutput:
            rec.cls = ConeOpClass::kUnary;
            break;
          case GateType::kNot:
            rec.cls = ConeOpClass::kUnary;
            rec.inv_out = 0xFF;
            break;
          default:
            break;
        }
      }

      rec.fanout_begin = fanout_size;
      for (const GateId o : gate.fanout) {
        if (!is_sequential(nl.gate(o).type) && fp.dense_of[o] >= 0) {
          ++fanout_size;
        }
      }
      rec.dfeed_begin = dfeed_size;
      dfeed_size += dfeed_count[n];
    }
    fp.nodes[fp.num_nodes].fanout_begin = fanout_size;
    fp.nodes[fp.num_nodes].dfeed_begin = dfeed_size;

    fp.fanin_pool.resize(fanin_pool_size);
    fp.fanout.resize(fanout_size);
    fp.dfeed.resize(dfeed_size);

    uint32_t pool_next = 0;
    for (uint32_t n = 0; n < fp.num_nodes; ++n) {
      const Gate& gate = nl.gate(fp.gate_of[n]);
      ConeNode& rec = fp.nodes[n];
      if (rec.nf > 0) {
        // Remap operands; every fanin of a live combinational gate is
        // live (backward-closure invariant), and dense order is
        // level-sorted, so operands always precede their reader.
        auto remap = [&](GateId in) {
          const int32_t dn = fp.dense_of[in];
          OCC_CHECK(dn >= 0, "cone operand escaped the cone");
          OCC_CHECK(dn < static_cast<int32_t>(n),
                    "operand must precede its reader in dense order");
          return static_cast<uint32_t>(dn);
        };
        if (rec.nf <= 2) {
          rec.in0 = remap(gate.fanin[0]);
          if (rec.nf == 2) rec.in1 = remap(gate.fanin[1]);
        } else {
          rec.in0 = pool_next;
          for (const GateId in : gate.fanin) {
            fp.fanin_pool[pool_next++] = remap(in);
          }
        }
      }
      uint32_t w = rec.fanout_begin;
      for (const GateId o : gate.fanout) {
        const int32_t dn = fp.dense_of[o];
        if (!is_sequential(nl.gate(o).type) && dn >= 0) {
          fp.fanout[w++] = static_cast<uint32_t>(dn);
        }
      }
    }

    std::vector<uint32_t> dfeed_next(fp.num_nodes, 0);
    for (uint32_t n = 0; n < fp.num_nodes; ++n) {
      dfeed_next[n] = fp.nodes[n].dfeed_begin;
    }
    for (size_t i = 0; i < dffs.size(); ++i) {
      const Gate& ff = nl.gate(dffs[i]);
      if (!(cyc.pulses & (DomainMask{1} << ff.domain))) continue;
      const int32_t dn = fp.dense_of[ff.fanin[0]];
      if (dn >= 0) {
        fp.dfeed[dfeed_next[static_cast<size_t>(dn)]++] =
            static_cast<uint32_t>(i);
      }
    }

    fp.dff_pulsed.assign(dffs.size(), 0);
    for (size_t i = 0; i < dffs.size(); ++i) {
      const Gate& ff = nl.gate(dffs[i]);
      fp.dff_pulsed[i] = (cyc.pulses & (DomainMask{1} << ff.domain)) != 0;
    }
  }
  return prog;
}

}  // namespace occ
