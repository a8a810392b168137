// Observability cones of a named capture procedure and their compiled
// replay programs -- the two per-NCP artifacts the fault simulator's hot
// loop runs on.
//
// Observability is computed backwards over the NCP's frames. In frame f
// a gate's output net is "live" iff corrupting it can still reach an
// observation point:
//   * a primary output strobed in frame f, or
//   * the D pin of a flop pulsed in frame f whose captured value matters
//     (the flop is a scan cell, unloaded at the end, or its output net
//     is live in some later frame).
// The closure walks combinational fan-in only; flop outputs terminate a
// frame's cone (their corruption is accounted in the earlier frame that
// captured it). The masks are a structural over-approximation of fault
// sensitization, so restricting propagation to live nets is exact: a
// difference outside the cone can never change a detection verdict.
//
// Walking a frame's cone over the *global* netlist would pointer-chase
// a ~100-byte Gate per event (fanin and fanout std::vectors, a
// std::string name) and re-check liveness and sequential-ness of every
// fanout. Per unit of work the cone graph is small, so a statically
// scheduled dense traversal wins -- the same trade sparse-graph message
// schedules make for BP solvers. compile_cone_program() therefore lowers
// each frame's cone once per NCP into a flat program over *dense ids*
// (cone-local gate numbers, assigned in non-decreasing level order):
//
//   nodes[]       24-byte records: opcode, dense-remapped fanin ids
//                 (inline for <= 2 inputs), CSR begins for the fanout /
//                 capture-probe pools, PO probe flag
//   fanin_pool[]  operand ids of wider gates
//   fanout[]      dense ids of in-cone combinational readers (liveness
//                 + sequential filters compiled away)
//   dfeed[]       capture probe slots: positions of flops pulsed this
//                 frame whose D pin the node drives
//
// The replay invariant making this exact: the backward closure marks
// every fanin of a live combinational gate live, so all operands of all
// evaluable nodes have dense ids -- a fault overlay pass touches only
// the program plus a cone-sized scratch arena, never the netlist. The
// fault simulator sweeps an active bitset over the dense ids in place of
// an event queue (tests/test_cone_program.cpp pins the lowering
// invariants and the simulator's agreement with full simulation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/ncp.h"
#include "netlist/netlist.h"

namespace occ {

/// Per-frame observability for one NCP.
struct FrameObs {
  /// live[f][gate] != 0: corrupting `gate`'s output net in frame f can
  /// still reach an observation point.
  std::vector<std::vector<uint8_t>> live;
  /// capture[f][dff_pos] != 0: a value captured by this flop in frame f
  /// is observable (directly at unload or through later frames). Flops
  /// not pulsed in frame f are always 0.
  std::vector<std::vector<uint8_t>> capture;
};

/// Builds `ncp`'s observability masks on `nl` (scan cells -- kDff gates
/// carrying kFlagScan -- are observed at unload). Pure function: equal
/// inputs give byte-identical masks, so engines and the shared
/// compiled-design artifact agree on them.
FrameObs build_frame_obs(const Netlist& nl, const NamedCaptureProcedure& ncp);

/// Evaluation class of a lowered node. The sweep's per-event opcode
/// dispatch is a data-dependent indirect branch -- on a random gate mix
/// it mispredicts constantly and costs more than the evaluation itself.
/// Lowering therefore canonicalizes the common cells into three
/// branch-light forms driven by inversion masks (De Morgan: OR(a,b) =
/// NOT(AND(NOT a, NOT b)), exact in ternary strong-Kleene logic):
enum class ConeOpClass : uint8_t {
  kAnd2,     ///< 2-input AND/NAND/OR/NOR via inv_in/inv_out masks
  kXor2,     ///< 2-input XOR/XNOR via inv_out
  kUnary,    ///< BUF/NOT/PO marker via inv_out
  kGeneric,  ///< everything else (mux, wide gates): eval_gate_packed
};

/// Hot per-node record of the replay program: all static metadata one
/// event evaluation needs, in 24 bytes. Fanin dense ids are stored
/// inline for the dominant <= 2-input gates (one cache line covers the
/// whole gather); wider gates indirect into the frame's fanin_pool.
/// CSR list ends come from the NEXT record (programs carry a sentinel
/// record at index num_nodes), so the begins stay monotonic.
struct ConeNode {
  uint32_t in0 = 0;          ///< operand 0, or fanin_pool begin if nf > 2
  uint32_t in1 = 0;          ///< operand 1 (nf == 2)
  uint32_t fanout_begin = 0;  ///< into FrameProgram::fanout
  uint32_t dfeed_begin = 0;   ///< into FrameProgram::dfeed
  uint8_t op = 0;             ///< GateType (kGeneric evaluation, tests)
  uint8_t po_probe = 0;       ///< 1: strobed primary-output node
  uint16_t nf = 0;            ///< fanin count (0 for level-0 sources)
  ConeOpClass cls = ConeOpClass::kGeneric;  ///< evaluation class
  uint8_t inv_in = 0;   ///< 0x00 or 0xFF: complement inputs (kAnd2)
  uint8_t inv_out = 0;  ///< 0x00 or 0xFF: complement the result
  uint8_t pad = 0;
};

/// One frame's cone lowered to a flat replay program. Dense ids
/// 0..num_nodes-1 cover exactly the gates live in this frame, sorted by
/// combinational level (topological order); nodes at level >= 1 are
/// evaluable, level-0 nodes (PIs, ties, flop outputs) are operand-only
/// sources.
struct FrameProgram {
  uint32_t num_nodes = 0;

  std::vector<GateId> gate_of;    ///< dense id -> netlist gate id
  std::vector<int32_t> dense_of;  ///< gate id -> dense id, -1 off-cone

  /// Per-node records, num_nodes + 1 (last is the CSR-end sentinel).
  std::vector<ConeNode> nodes;

  /// Operand ids of gates with more than two fanins (dense ids; every
  /// operand of an evaluable node is in-cone, so values resolve inside
  /// the scratch arena).
  std::vector<uint32_t> fanin_pool;

  /// Fanout pool, pre-filtered to in-cone combinational readers: the
  /// nodes a difference on this node can activate.
  std::vector<uint32_t> fanout;

  /// Capture probe slots pool: dff positions (indexed like nl.dffs())
  /// pulsed in this frame whose D input is the node's output net.
  std::vector<uint32_t> dfeed;

  /// dff_pulsed[pos] != 0: the flop captures in this frame (its domain
  /// is in the frame's pulse mask).
  std::vector<uint8_t> dff_pulsed;
};

/// All frames of one NCP, plus the arena size a worker needs.
struct ConeProgram {
  std::vector<FrameProgram> frames;
  uint32_t max_nodes = 0;  ///< max num_nodes over frames (scratch sizing)
};

/// Lowers `ncp`'s observability cones (per-frame masks in `obs`, built
/// by build_frame_obs for the same netlist) into a replay program.
/// Deterministic for a fixed (netlist, ncp): dense ids follow the
/// netlist's topological order restricted to the cone.
ConeProgram compile_cone_program(const Netlist& nl,
                                 const NamedCaptureProcedure& ncp,
                                 const FrameObs& obs);

}  // namespace occ
