// Tests: word-parallel PPSFP through the window API -- lane-boundary
// parity of statuses, detection slots and stats against the interpreted
// brute-force reference simulator (tests/test_helpers.h) at batch sizes
// that straddle the 64-lane word boundary (1, 63, 64, 65, 200), across
// all five clocking schemes, the committed circuits/ corpus, X-state
// frames, the sharded dispatcher, and the window API's
// chunking/slot-mapping contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "fsim/sharded.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace occ {
namespace {

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

/// `count` random patterns bound to procedure `ncp`. Fully specified by
/// default; with `x_holes`, ~15% of loads and changeable PI frames are
/// knocked back to X so three-valued propagation is what gets
/// parity-checked.
PatternSet make_patterns(const Netlist& nl, const ClockingScheme& s,
                         uint32_t ncp, size_t count, uint64_t seed,
                         bool x_holes = false) {
  Rng rng(seed);
  const NamedCaptureProcedure& proc = s.procedures[ncp];
  PatternSet ps("w");
  for (size_t i = 0; i < count; ++i) {
    TestPattern p;
    p.ncp_index = ncp;
    p.pi_frames.assign(proc.cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(proc, rng);
    if (!x_holes) {
      ps.add(std::move(p));
      continue;
    }
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
    ps.add(std::move(p));
  }
  return ps;
}

struct GradedRun {
  FsimStats st{};
  std::vector<std::pair<size_t, unsigned>> dets{};
  FaultList fl;
};

/// Grades `ps` through the window API on a persistent engine (fresh
/// fault list per call, like every production caller).
GradedRun grade(NcpFaultSim& sim, const Netlist& nl,
                const ClockingScheme& s, const PatternSet& ps) {
  GradedRun r{.fl = FaultList::build(nl, s.model)};
  r.st = sim.detect_faults(ps, 0, ps.size(), r.fl, &r.dets);
  return r;
}

/// The reference's grading of the same window.
GradedRun reference(const Netlist& nl, const ClockingScheme& s,
                    const PatternSet& ps) {
  GradedRun r{.fl = FaultList::build(nl, s.model)};
  r.st = test::ref_grade_window(nl, s, nl.find("scan_en"), ps, 0, ps.size(),
                                r.fl, &r.dets);
  return r;
}

/// Statuses, detection slots and stats (work counters are the engine's
/// own, so `b` may be a reference run).
void expect_runs_equal(const Netlist& nl, const GradedRun& a,
                       const GradedRun& b) {
  EXPECT_EQ(a.dets, b.dets);
  EXPECT_EQ(a.st.faults_simulated, b.st.faults_simulated);
  EXPECT_EQ(a.st.newly_detected, b.st.newly_detected);
  EXPECT_EQ(a.st.newly_possibly, b.st.newly_possibly);
  ASSERT_EQ(a.fl.size(), b.fl.size());
  for (size_t i = 0; i < a.fl.size(); ++i) {
    ASSERT_EQ(a.fl.status(i), b.fl.status(i))
        << "fault " << fault_to_string(nl, a.fl.fault(i));
  }
}

/// The engine must reproduce the reference bit for bit -- statuses,
/// detection slots and stats -- at every window size around the 64-lane
/// boundary.
void expect_word_parity(const Netlist& nl, const ClockingScheme& s,
                        uint32_t ncp, uint64_t seed,
                        bool x_holes = false) {
  NcpFaultSim word(nl, s, nl.find("scan_en"));
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{200}}) {
    SCOPED_TRACE(s.name + " ncp" + std::to_string(ncp) + " n=" +
                 std::to_string(n));
    const PatternSet ps = make_patterns(nl, s, ncp, n, seed + n, x_holes);
    expect_runs_equal(nl, grade(word, nl, s, ps), reference(nl, s, ps));
  }
}

TEST(WordParallelParity, AllFiveSchemesAcrossLaneBoundaries) {
  const Netlist nl = test_soc(21);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_stuck_at_external(nd), scheme_external_full(nd, 3),
        scheme_cpf_basic(nd), scheme_cpf_enhanced(nd, 3),
        scheme_external_constrained(nd, 3)}) {
    expect_word_parity(nl, s, 0, 5000);
  }
}

TEST(WordParallelParity, EnhancedCpfAllProcedures) {
  // Multi-pulse bursts and inter-domain procedures: faulty state
  // carried across frames, including X from non-scan power-up state.
  const Netlist nl = test_soc(22);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 4);
  for (uint32_t ncp = 0; ncp < s.procedures.size(); ++ncp) {
    expect_word_parity(nl, s, ncp, 6000 + ncp);
  }
}

TEST(WordParallelParity, XStateFramesMatchReference) {
  // X holes in loads and PI frames: three-valued propagation, with
  // possible detections, must still match the reference bit for bit.
  const Netlist nl = test_soc(23);
  const size_t nd = nl.num_domains();
  for (const ClockingScheme& s :
       {scheme_cpf_basic(nd), scheme_cpf_enhanced(nd, 3)}) {
    expect_word_parity(nl, s, 0, 7000, /*x_holes=*/true);
  }
}

TEST(WordParallelParity, CorpusCircuits) {
  for (const char* name :
       {"s27.bench", "s27m.bench", "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    Netlist nl =
        read_bench_file(std::string(OCC_CIRCUITS_DIR) + "/" + name);
    insert_scan(nl, {.num_chains = 2});
    const size_t nd = nl.num_domains();
    for (const ClockingScheme& s :
         {scheme_stuck_at_external(nd), scheme_cpf_basic(nd)}) {
      expect_word_parity(nl, s, 0, 8000);
    }
  }
}

TEST(WordParallelParity, ShardedMatchesSequentialInterpreted) {
  // Sharded window grading, 1-3 shards, against the sequential
  // interpreted reference.
  const Netlist nl = test_soc(24);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  const PatternSet ps = make_patterns(nl, s, 0, 130, 42);

  const GradedRun ref = reference(nl, s, ps);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFaultSim sim(nl, s, se, shards);
    GradedRun r{.fl = FaultList::build(nl, s.model)};
    r.st = sim.detect_faults(ps, 0, ps.size(), r.fl, &r.dets);
    expect_runs_equal(nl, r, ref);
  }
}

TEST(WordParallelWindow, MatchesManualChunkingAndMapsSlots) {
  // The window API's contract: maximal same-NCP runs swept 64 lanes at
  // a time, fault dropping carried across sweeps, detection slots
  // relative to `first`. A hand-rolled loop over pack_batch chunks must
  // reproduce it exactly -- including on a sub-window that starts at a
  // non-zero, non-lane-aligned offset.
  const Netlist nl = test_soc(25);
  const ClockingScheme s = scheme_cpf_basic(nl.num_domains());
  const GateId se = nl.find("scan_en");
  const PatternSet ps = make_patterns(nl, s, 0, 200, 77);

  for (const auto& [first, n] :
       std::vector<std::pair<size_t, size_t>>{{0, 200}, {10, 70}}) {
    SCOPED_TRACE("first=" + std::to_string(first) + " n=" +
                 std::to_string(n));
    NcpFaultSim word(nl, s, se);
    GradedRun w{.fl = FaultList::build(nl, s.model)};
    w.st = word.detect_faults(ps, first, n, w.fl, &w.dets);

    NcpFaultSim manual(nl, s, se);
    GradedRun m{.fl = FaultList::build(nl, s.model)};
    for (size_t b = first; b < first + n; b += 64) {
      const size_t cnt = std::min<size_t>(64, first + n - b);
      const PatternBatch batch =
          pack_batch(ps, b, cnt, nl, s.procedures[0]);
      std::vector<std::pair<size_t, unsigned>> dets;
      m.st += manual.detect_faults(batch, m.fl, &dets);
      for (const auto& [fault, slot] : dets) {
        m.dets.emplace_back(fault,
                            static_cast<unsigned>(b - first) + slot);
      }
    }
    expect_runs_equal(nl, w, m);
    EXPECT_EQ(w.st.gate_evals, m.st.gate_evals);
    EXPECT_EQ(w.st.events_processed, m.st.events_processed);
  }
}

TEST(WordParallelWindow, MixedNcpRunsGradeEachProcedure) {
  // Patterns alternating between capture procedures: the window API
  // must split them into same-NCP runs. Cross-checked against the
  // reference through the same window and against one-pattern-at-a-time
  // grading (statuses only -- dropping quantizes at the sweep boundary,
  // so slots and counters legitimately differ).
  const Netlist nl = test_soc(26);
  const ClockingScheme s = scheme_cpf_enhanced(nl.num_domains(), 3);
  ASSERT_GT(s.procedures.size(), 1u);
  const GateId se = nl.find("scan_en");

  Rng rng(9);
  PatternSet ps("mixed");
  for (size_t i = 0; i < 130; ++i) {
    const uint32_t ncp =
        static_cast<uint32_t>(i % s.procedures.size());
    const PatternSet one = make_patterns(nl, s, ncp, 1, 9000 + i);
    ps.add(one[0]);
  }

  NcpFaultSim word(nl, s, se);
  GradedRun w{.fl = FaultList::build(nl, s.model)};
  w.st = word.detect_faults(ps, 0, ps.size(), w.fl, &w.dets);
  expect_runs_equal(nl, w, reference(nl, s, ps));

  NcpFaultSim single(nl, s, se);
  FaultList one_at_a_time = FaultList::build(nl, s.model);
  for (size_t p = 0; p < ps.size(); ++p) {
    single.detect_faults(ps, p, 1, one_at_a_time);
  }
  ASSERT_EQ(w.fl.size(), one_at_a_time.size());
  for (size_t f = 0; f < w.fl.size(); ++f) {
    ASSERT_EQ(w.fl.status(f), one_at_a_time.status(f))
        << "fault " << fault_to_string(nl, w.fl.fault(f));
  }
}

}  // namespace
}  // namespace occ
