// Tests: compiled-cone replay programs (sim/cone_program.h) -- whole-
// list grading (statuses, detection slots, stats) identical to the
// interpreted brute-force reference simulator (tests/test_helpers.h
// RefFaultSim) across every scheme on generated SOCs and the committed
// circuits/ corpus, sequential and sharded, batch and full session;
// structural invariants of the lowered programs; and the
// allocation-free steady-state hot loop (global operator new counter
// around a warmed-up detect_faults).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "test_helpers.h"
#include "util/rng.h"

// ---- global allocation counter ------------------------------------------
// Counts every operator new in the process; the steady-state test
// snapshots it around a warmed-up detect_faults call. Deallocation
// routes straight to free() so the pairing stays trivially correct.
// The nothrow forms must be replaced too: the library's nothrow new
// (e.g. std::stable_sort's temporary buffer) would otherwise hand a
// non-malloc block to the free() below, which ASan reports as an
// alloc-dealloc mismatch.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(a);
  void* p = nullptr;
  if (posix_memalign(&p, al < sizeof(void*) ? sizeof(void*) : al,
                     n ? n : al) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace occ {
namespace {

using test::RefFaultSim;

Netlist test_soc(uint64_t seed) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.flops = 80;
  prm.gates = 700;
  prm.pis = 12;
  prm.pos = 12;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 3});
  return nl;
}

/// Random batch with X holes (loads and PIs) so parity covers
/// three-valued propagation; mirrors tests/test_cone.cpp.
PatternBatch make_batch(const Netlist& nl, const ClockingScheme& s,
                        uint32_t ncp, uint64_t seed, PatternSet* ps) {
  Rng rng(seed);
  const NamedCaptureProcedure& proc = s.procedures[ncp];
  for (int i = 0; i < 64; ++i) {
    TestPattern p;
    p.ncp_index = ncp;
    p.pi_frames.assign(proc.cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(proc, rng);
    for (auto& v : p.load) {
      if (rng.chance(0.15)) v = V3::kX;
    }
    for (size_t f = 0; f < p.pi_frames.size(); ++f) {
      if (f > 0 && !proc.cycles[f].pi_change) {
        p.pi_frames[f] = p.pi_frames[f - 1];
        continue;
      }
      for (auto& v : p.pi_frames[f]) {
        if (rng.chance(0.15)) v = V3::kX;
      }
    }
    ps->add(std::move(p));
  }
  return pack_batch(*ps, 0, 64, nl, proc);
}

/// Statuses, detection slots and stats of one graded fault list: what
/// the engine and the reference must agree on (work counters are the
/// engine's own).
void expect_same_grading(const Netlist& nl, const FaultList& got,
                         const FsimStats& st_got,
                         const std::vector<std::pair<size_t, unsigned>>& d_got,
                         const FaultList& want, const FsimStats& st_want,
                         const std::vector<std::pair<size_t, unsigned>>& d_want) {
  EXPECT_EQ(d_got, d_want);
  EXPECT_EQ(st_got.faults_simulated, st_want.faults_simulated);
  EXPECT_EQ(st_got.newly_detected, st_want.newly_detected);
  EXPECT_EQ(st_got.newly_possibly, st_want.newly_possibly);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.status(i), want.status(i))
        << "fault " << fault_to_string(nl, got.fault(i));
  }
}

/// The compiled engine's whole-list grading of one batch must reproduce
/// the reference's bit for bit: statuses, detection slots, stats.
void expect_compiled_parity(const Netlist& nl, const ClockingScheme& s,
                            uint32_t ncp, uint64_t seed) {
  SCOPED_TRACE(s.name + " ncp" + std::to_string(ncp));
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, ncp, seed, &ps);

  FaultList want = FaultList::build(nl, s.model);
  std::vector<std::pair<size_t, unsigned>> d_want;
  const FsimStats st_want = RefFaultSim(nl, s, se, b).grade(want, &d_want);

  NcpFaultSim comp(nl, s, se);
  FaultList got = FaultList::build(nl, s.model);
  std::vector<std::pair<size_t, unsigned>> d_got;
  const FsimStats st_got = comp.detect_faults(b, got, &d_got);
  expect_same_grading(nl, got, st_got, d_got, want, st_want, d_want);
}

TEST(ConeProgramParity, TransitionSchemesWithXStates) {
  const Netlist nl = test_soc(7);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_cpf_basic(nd), scheme_external_full(nd, 3),
        scheme_external_constrained(nd, 3)}) {
    for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
      expect_compiled_parity(nl, s, ncp, 1000 + ncp);
    }
  }
}

TEST(ConeProgramParity, EnhancedCpfAllProcedures) {
  // Multi-pulse bursts and inter-domain procedures: carried state
  // corruption across frames, multiple at-speed launch frames, the
  // STR/STF pair overlay and its solo fallback.
  const Netlist nl = test_soc(8);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 4);
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_compiled_parity(nl, s, ncp, 2000 + ncp);
  }
}

TEST(ConeProgramParity, StuckAtSchemes) {
  const Netlist nl = test_soc(9);
  const ClockingScheme s = scheme_stuck_at_external(nl.num_domains());
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_compiled_parity(nl, s, ncp, 3000 + ncp);
  }
}

TEST(ConeProgramParity, CorpusCircuitsAllSchemes) {
  // The committed cycle-semantics corpus circuits (hand-written s27
  // variants and the generated ISCAS'89-class designs).
  for (const char* name :
       {"s27.bench", "s27m.bench", "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    Netlist nl = read_bench_file(std::string(OCC_CIRCUITS_DIR) + "/" + name);
    insert_scan(nl, {.num_chains = 2});
    const size_t nd = nl.num_domains();
    for (const ClockingScheme& s :
         {scheme_stuck_at_external(nd), scheme_cpf_basic(nd),
          scheme_cpf_enhanced(nd, 3)}) {
      for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
        expect_compiled_parity(nl, s, ncp, 4000 + ncp);
      }
    }
  }
}

TEST(ConeProgramParity, ShardedCompiledMatchesSequentialInterpreted) {
  // The compiled engine, sharded 1-3 ways, against the sequential
  // interpreted reference (RefFaultSim).
  const Netlist nl = test_soc(12);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  PatternSet ps("x");
  const PatternBatch b = make_batch(nl, s, 0, 77, &ps);

  FaultList ref = FaultList::build(nl, FaultModel::kTransition);
  std::vector<std::pair<size_t, unsigned>> dref;
  const FsimStats stref = RefFaultSim(nl, s, se, b).grade(ref, &dref);

  uint64_t gate_evals = 0, events = 0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FaultList fl = FaultList::build(nl, FaultModel::kTransition);
    std::vector<std::pair<size_t, unsigned>> dets;
    ShardedFaultSim sim(nl, s, se, shards);
    const FsimStats st = sim.detect_faults(b, fl, &dets);
    expect_same_grading(nl, fl, st, dets, ref, stref, dref);
    // The work counters are shard-independent.
    if (shards == 1) {
      gate_evals = st.gate_evals;
      events = st.events_processed;
    }
    EXPECT_EQ(st.gate_evals, gate_evals);
    EXPECT_EQ(st.events_processed, events);
  }
}

TEST(ConeProgramParity, SessionPipelineIdenticalToInterpreted) {
  // End to end through the Session front door on a corpus circuit with
  // the multi-procedure enhanced scheme and sharded fault simulation:
  // the session's detected set must be exactly what the interpreted
  // reference (RefFaultSim) finds when it re-grades the final
  // (mixed-procedure) pattern set.
  SessionConfig cfg;
  cfg.design_file(std::string(OCC_CIRCUITS_DIR) + "/s344c.bench")
      .scan({.num_chains = 2})
      .scheme(scheme_cpf_enhanced(1, 2))
      .engine({.fsim = {.shards = 3}});
  const SessionResult r = Session(std::move(cfg)).run();
  const Netlist& nl = *r.netlist;
  const PatternSet& ps = r.atpg.patterns;
  ASSERT_GT(ps.size(), 0u);
  FaultList ref = FaultList::build(nl, r.scheme.model);
  test::ref_grade_window(nl, r.scheme, r.scan_en, ps, 0, ps.size(), ref,
                         nullptr);
  ASSERT_EQ(ref.size(), r.atpg.faults.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.status(i) == FaultStatus::kDetected,
              r.atpg.faults.status(i) == FaultStatus::kDetected)
        << "fault " << fault_to_string(nl, ref.fault(i));
  }
}

TEST(ConeProgramParity, DPinFaultOnFlopFedByFlop) {
  // Regression: a D-pin branch fault on a flop whose D net is itself a
  // corrupted flop. The carried-state seed and the injection seed name
  // the same capture candidate; without dedup the flop's corruption is
  // carried twice and next-frame activation events are double-counted.
  Netlist nl("ff2ff");
  const GateId a = nl.add_input("a");
  const GateId f1 = nl.add_dff(kNoGate, 0, "f1");
  const GateId f2 = nl.add_dff(f1, 0, "f2");
  nl.connect_dff_d(f1, nl.add_gate2(GateType::kAnd, f2, a, "g"));
  nl.add_output(nl.add_gate1(GateType::kBuf, f2, "z"), "o");
  nl.finalize();

  ClockingScheme s;
  s.name = "ff2ff_sa";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "cap4";
  for (int i = 0; i < 4; ++i) {
    p.cycles.push_back({.pulses = kAllDomains,
                        .pi_change = true,
                        .po_strobe = true,
                        .at_speed = false});
  }
  s.procedures.push_back(p);

  PatternSet ps("x");
  TestPattern t;
  t.ncp_index = 0;
  t.pi_frames.assign(4, std::vector<V3>{V3::k1});
  ps.add(std::move(t));
  const PatternBatch b = pack_batch(ps, 0, 1, nl, s.procedures[0]);
  const uint64_t live = NcpFaultSim::live_mask(b);

  FaultList fl = FaultList::build(nl, FaultModel::kStuckAt);
  const RefFaultSim ref(nl, s, kNoGate, b);
  NcpFaultSim comp(nl, s, kNoGate);
  comp.simulate_good(b);
  FsimWork work;
  for (size_t i = 0; i < fl.size(); ++i) {
    const auto [hard, poss] = comp.probe_fault(fl.fault(i), live, &work);
    ASSERT_EQ(ref.masks(fl.fault(i)), (RefFaultSim::Masks{hard, poss}))
        << fault_to_string(nl, fl.fault(i));
  }
  // Whole-list work pinned: one event per fanout activation of each
  // distinct corrupted flop, so a double-carried flop shows up here.
  EXPECT_EQ(work.gate_evals, 66u);
  EXPECT_EQ(work.events_processed, 70u);
}

TEST(ConeProgramStructure, LoweringInvariants) {
  const Netlist nl = test_soc(13);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 3);
  for (const NamedCaptureProcedure& ncp : s.procedures) {
    const ConeProgram prog =
        compile_cone_program(nl, ncp, build_frame_obs(nl, ncp));
    ASSERT_EQ(prog.frames.size(), ncp.cycles.size());
    for (const FrameProgram& fp : prog.frames) {
      ASSERT_LE(fp.num_nodes, prog.max_nodes);
      ASSERT_EQ(fp.gate_of.size(), fp.num_nodes);
      ASSERT_EQ(fp.nodes.size(), fp.num_nodes + 1);  // CSR-end sentinel
      // dense_of and gate_of are inverse on the cone.
      for (uint32_t n = 0; n < fp.num_nodes; ++n) {
        ASSERT_EQ(fp.dense_of[fp.gate_of[n]], static_cast<int32_t>(n));
      }
      int32_t prev_level = -1;
      for (uint32_t n = 0; n < fp.num_nodes; ++n) {
        const Gate& g = nl.gate(fp.gate_of[n]);
        const ConeNode& rec = fp.nodes[n];
        // Dense ids are level-sorted.
        ASSERT_GE(g.level, prev_level);
        prev_level = g.level;
        // Operands precede their reader (the sweep's scheduling
        // invariant); fanouts strictly follow it.
        if (rec.nf > 0 && rec.nf <= 2) {
          ASSERT_LT(rec.in0, n);
          if (rec.nf == 2) ASSERT_LT(rec.in1, n);
        } else if (rec.nf > 2) {
          for (uint32_t i = 0; i < rec.nf; ++i) {
            ASSERT_LT(fp.fanin_pool[rec.in0 + i], n);
          }
        }
        for (uint32_t k = rec.fanout_begin;
             k < fp.nodes[n + 1].fanout_begin; ++k) {
          ASSERT_GT(fp.fanout[k], n);
          ASSERT_LT(fp.fanout[k], fp.num_nodes);
        }
        // Level-0 nodes are operand-only sources.
        if (g.level == 0) ASSERT_EQ(rec.nf, 0);
      }
    }
  }
}

TEST(ConeProgramAllocations, SteadyStateHotLoopIsAllocationFree) {
  const Netlist nl = test_soc(14);
  const GateId se = nl.find("scan_en");

  // Allocations of steady-state detect_faults calls: one warm-up call
  // per batch builds the replay programs and sizes every shard's
  // scratch to this workload's bounds; then the same batches, in the
  // same order, over identical fresh fault lists must not touch the
  // heap at all.
  const auto steady_state_allocs = [&](auto& sim, const ClockingScheme& s,
                                       const std::vector<PatternBatch>& bs) {
    for (const PatternBatch& b : bs) {
      FaultList warm = FaultList::build(nl, s.model);
      sim.detect_faults(b, warm);
    }
    std::vector<FaultList> fls;
    for (size_t i = 0; i < bs.size(); ++i) {
      fls.push_back(FaultList::build(nl, s.model));
    }
    FsimStats st;
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (size_t i = 0; i < bs.size(); ++i) {
      st += sim.detect_faults(bs[i], fls[i]);
    }
    const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_GT(st.faults_simulated, 0u);
    EXPECT_GT(st.gate_evals, 0u);
    return after - before;
  };
  // The sharded walk adds the pool dispatch, the unit cursor and the
  // per-shard scratches; none of them may allocate either.
  const auto expect_allocation_free = [&](const ClockingScheme& s,
                                          const std::vector<PatternBatch>& bs) {
    NcpFaultSim sim(nl, s, se);
    EXPECT_EQ(steady_state_allocs(sim, s, bs), 0u)
        << "detect_faults allocated on a warmed-up engine";
    ShardedFaultSim sharded(nl, s, se, 4);
    EXPECT_EQ(steady_state_allocs(sharded, s, bs), 0u)
        << "4-shard detect_faults allocated on a warmed-up engine";
  };

  {
    SCOPED_TRACE("one procedure");
    const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
    PatternSet ps("x");
    expect_allocation_free(s, {make_batch(nl, s, 0, 99, &ps)});
  }
  {
    // Procedures of two lengths, alternating as in compaction: a batch
    // of the longer one after the shorter must find every per-frame
    // buffer already grown.
    SCOPED_TRACE("2- and 3-frame procedures");
    const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 3);
    const auto first_of_length = [&](size_t frames) {
      uint32_t nc = 0;
      while (s.procedures.at(nc).cycles.size() != frames) ++nc;
      return nc;
    };
    PatternSet ps2("x"), ps3("y");
    const PatternBatch b2 = make_batch(nl, s, first_of_length(2), 99, &ps2);
    const PatternBatch b3 = make_batch(nl, s, first_of_length(3), 98, &ps3);
    expect_allocation_free(s, {b2, b3, b2, b3});
  }
}

}  // namespace
}  // namespace occ
