// Tests: experiment flow plumbing, report rendering, extra regressions
// added late in development (inter-domain gate-level timing, engine cube
// merging, low-speed fault classification).
#include <gtest/gtest.h>

#include <sstream>

#include "atpg/engine.h"
#include "core/enhanced_cpf.h"
#include "core/pll.h"
#include "core/verify.h"
#include "dft/ate_export.h"
#include "dft/edt.h"
#include "dft/scan.h"
#include "flow/report.h"
#include "fsim/tfsim.h"
#include "gen/circuits.h"
#include "netlist/bench_io.h"
#include "gen/socgen.h"
#include "sim/event_sim.h"
#include "util/check.h"
#include "test_helpers.h"

namespace occ {
namespace {

TEST(PaperRef, AllRowsDefined) {
  for (char id : {'a', 'b', 'c', 'd', 'e'}) {
    const flow::PaperReference r = flow::paper_reference(id);
    EXPECT_GT(r.tc, 80.0);
    EXPECT_GE(r.patterns, 1.0);
  }
  EXPECT_THROW(flow::paper_reference('z'), CheckError);
}

TEST(Table1Rows, MissingRowFailsClearly) {
  flow::Table1Result r;
  EXPECT_FALSE(r.has_row('a'));
  EXPECT_EQ(r.find_row('a'), nullptr);
  try {
    (void)r.row('a');
    FAIL() << "row('a') on an empty result must throw";
  } catch (const CheckError& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("(a)"), std::string::npos);
    EXPECT_NE(w.find("<none>"), std::string::npos);
  }

  flow::ExperimentRow row_b;
  row_b.id = "(b)";
  r.rows.push_back(row_b);
  EXPECT_TRUE(r.has_row('b'));
  EXPECT_FALSE(r.has_row('c'));
  try {
    (void)r.row('c');
    FAIL() << "row('c') must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("(b)"), std::string::npos)
        << "error must name the rows that ARE present";
  }
}

TEST(Table1Rows, CheckShapesOnPartialRunReportsMissing) {
  flow::Table1Result r;
  flow::ExperimentRow row_a;
  row_a.id = "(a)";
  r.rows.push_back(row_a);
  r.checks = flow::check_shapes(r);
  ASSERT_EQ(r.checks.size(), 1u);
  EXPECT_FALSE(r.checks[0].pass);
  EXPECT_NE(r.checks[0].detail.find("(b)"), std::string::npos);
  EXPECT_EQ(r.checks[0].detail.find("(a)"), std::string::npos)
      << "present rows are not missing";
  EXPECT_FALSE(r.all_shapes_hold());
}

// The inter-domain program computed behaviorally must be realizable on
// the gate-level enhanced CPF hardware: two instances, each programmed
// per interdomain_program(), must emit single pulses in the predicted
// launch-then-capture order.
TEST(InterDomainHardware, GateLevelPulsesMatchProgram) {
  // Use periods >= 16 (enhanced decode depth, see enhanced_cpf.h).
  const PllModel pll(32, {{.period = 32, .phase = 8},
                          {.period = 16, .phase = 4}});
  const SimTime arm = 512;
  const InterDomainProgram prog = interdomain_program(pll, 0, 1, arm);

  Netlist nl("xdomain");
  const GateId sc = nl.add_input("scan_clk");
  const GateId se = nl.add_input("scan_en");
  const GateId tm = nl.add_input("test_mode");
  const GateId p0 = nl.add_input("pll0");
  const GateId p1 = nl.add_input("pll1");
  std::vector<EnhancedCpfPorts> cpfs;
  std::vector<EnhancedCpfProgram> progs = {prog.from_prog, prog.to_prog};
  std::vector<GateId> plls = {p0, p1};
  for (int d = 0; d < 2; ++d) {
    const std::string pre = "c" + std::to_string(d);
    const GateId c0 = nl.add_input(pre + "_c0");
    const GateId c1 = nl.add_input(pre + "_c1");
    const GateId s0 = nl.add_input(pre + "_s0");
    const GateId s1 = nl.add_input(pre + "_s1");
    const GateId s2 = nl.add_input(pre + "_s2");
    cpfs.push_back(build_enhanced_cpf(nl, sc, se, plls[d], tm, c0, c1, s0,
                                      s1, s2, pre));
  }
  nl.add_output(cpfs[0].clk_out, "o0");
  nl.add_output(cpfs[1].clk_out, "o1");
  nl.finalize();

  EventSim sim(nl);
  sim.watch(cpfs[0].clk_out, "clk0");
  sim.watch(cpfs[1].clk_out, "clk1");
  sim.drive(tm, 0, V3::k1);
  for (int d = 0; d < 2; ++d) {
    const auto pins = progs[d].pin_values();
    const GateId pin_ids[] = {cpfs[d].cnt0, cpfs[d].cnt1, cpfs[d].start0,
                              cpfs[d].start1, cpfs[d].start2};
    for (int i = 0; i < 5; ++i) {
      sim.drive(pin_ids[i], 0, pins[i] ? V3::k1 : V3::k0);
    }
  }
  const SimTime t_end = arm + 40 * pll.output(0).period;
  for (int d = 0; d < 2; ++d) {
    const SimTime T = pll.output(d).period;
    sim.drive(plls[d], 0, V3::k0);
    for (SimTime t = pll.output(d).phase; t < t_end; t += T) {
      sim.drive(plls[d], t, V3::k1);
      sim.drive(plls[d], t + T / 2, V3::k0);
    }
  }
  // Shift a few cycles (flushes the synchronizers), then arm.
  sim.drive(se, 0, V3::k1);
  sim.drive(sc, 0, V3::k0);
  for (int k = 0; k < 6; ++k) {
    sim.drive(sc, 64 + k * 64, V3::k1);
    sim.drive(sc, 96 + k * 64, V3::k0);
  }
  sim.drive(se, 460, V3::k0);
  sim.drive(sc, arm, V3::k1);
  sim.drive(sc, arm + 16, V3::k0);
  sim.run_until(t_end);

  const SignalTrace* c0 = sim.waveform().find("clk0");
  const SignalTrace* c1 = sim.waveform().find("clk1");
  EXPECT_EQ(c0->pulses(arm + 1, t_end), 1u) << "launch domain: one pulse";
  EXPECT_EQ(c1->pulses(arm + 1, t_end), 1u) << "capture domain: one pulse";
  // Rising edges in predicted order (allowing the CGC+mux delay of 2).
  std::vector<SimTime> l, c;
  V3 prev = V3::kX;
  for (const auto& [t, v] : c0->changes) {
    if (t > arm && prev == V3::k0 && v == V3::k1) l.push_back(t);
    prev = v;
  }
  prev = V3::kX;
  for (const auto& [t, v] : c1->changes) {
    if (t > arm && prev == V3::k0 && v == V3::k1) c.push_back(t);
    prev = v;
  }
  ASSERT_EQ(l.size(), 1u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(l[0], prog.launch_time + 2);
  EXPECT_EQ(c[0], prog.capture_time + 2);
  EXPECT_LT(l[0], c[0]) << "launch strictly before capture";
}

TEST(Engine, CubeMergingReducesPatterns) {
  // Wide combinational design: PODEM cubes are sparse over 25 inputs, so
  // compatible cubes abound and merging must compact the set.
  Netlist nl = gen::make_adder(12);
  ClockingScheme s;
  s.name = "comb_sa";
  s.model = FaultModel::kStuckAt;
  s.scan_en_frozen = false;
  NamedCaptureProcedure p;
  p.name = "strobe";
  p.cycles = {{.pulses = kAllDomains,
               .pi_change = true,
               .po_strobe = true,
               .at_speed = false}};
  s.procedures.push_back(p);

  AtpgOptions merged, unmerged;
  merged.reverse_compaction = false;
  unmerged.reverse_compaction = false;
  unmerged.merge_cubes = false;  // same flush cadence, no merging
  const AtpgRunResult rm = test::session_atpg(nl, s, kNoGate, merged);
  const AtpgRunResult ru = test::session_atpg(nl, s, kNoGate, unmerged);
  EXPECT_LT(rm.pattern_count(), ru.pattern_count())
      << "static cube merging must compact the deterministic set";
  EXPECT_EQ(rm.faults.count(FaultStatus::kDetected),
            ru.faults.count(FaultStatus::kDetected))
      << "merging must not change coverage";
  EXPECT_DOUBLE_EQ(rm.fault_coverage(), 1.0);
}

TEST(Engine, KeepCubesExposesCareBits) {
  Netlist nl = gen::make_counter(6);
  insert_scan(nl, {.num_chains = 1});
  AtpgOptions opts;
  opts.keep_cubes = true;
  opts.reverse_compaction = false;
  const AtpgRunResult r =
      test::session_atpg(nl, scheme_stuck_at_external(1),
                         nl.find("scan_en"), opts);
  ASSERT_FALSE(r.cubes.empty());
  EXPECT_LT(r.cubes.care_bit_density(), 1.0)
      << "cubes must retain X (unfilled) positions";
  EXPECT_GT(r.cubes.care_bit_density(), 0.0);
}

TEST(Classify, LowSpeedClassForPiOnlyCones) {
  // PI -> logic -> FF: transitions at the logic can only be launched by
  // a PI edge; under frozen PIs the class must be kLowSpeed.
  Netlist nl("pi_cone");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate2(GateType::kAnd, a, b, "g");
  nl.add_dff(g, 0, "ff", kFlagScan);
  nl.finalize();
  EXPECT_TRUE(fed_only_by_pis(nl, g));

  FaultList fl = FaultList::build(nl, FaultModel::kTransition);
  const FaultClassReport rep = classify_undetected(nl, fl, kNoGate);
  size_t low_speed = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.fault_class(i) == FaultClass::kLowSpeed) ++low_speed;
  }
  EXPECT_GT(low_speed, 0u);
  EXPECT_EQ(rep.low_speed, low_speed);
  EXPECT_EQ(rep.explained(), rep.total_classified - rep.unexplained);
}

TEST(AteExport, OnChipProgramStructure) {
  // Paper section 4: internal clock pulses are converted back to the
  // scan_clk/scan_en sequence that produces them.
  Netlist nl = gen::make_counter(6);
  const ScanChains chains = insert_scan(nl, {.num_chains = 2});
  const ClockingScheme s = scheme_cpf_basic(1);
  AtpgOptions opts;
  opts.reverse_compaction = false;
  const AtpgRunResult r = test::session_atpg(nl, s, chains.scan_en, opts);
  ASSERT_FALSE(r.patterns.empty());

  const AteProgram prog =
      export_ate_program(nl, chains, s, r.patterns, /*on_chip=*/true);
  EXPECT_EQ(prog.patterns, r.patterns.size());
  // Per pattern: shift + settle + arm + wait + unload.
  const size_t per_pattern = 2 * chains.max_length() + 3;
  EXPECT_EQ(prog.num_cycles(), per_pattern * r.patterns.size());

  // Invariants: scan_en high exactly during shift/unload; exactly one
  // arming scan_clk pulse per capture block; PIs never change between
  // the settle and wait cycles (frozen-PI constraint).
  const size_t se = 1;
  size_t arms = 0;
  for (size_t c = 0; c < prog.cycles.size(); ++c) {
    const AteCycle& cy = prog.cycles[c];
    if (cy.comment.find("arm") != std::string::npos) {
      ++arms;
      EXPECT_EQ(cy.pin_values[0], V3::k1);
      EXPECT_EQ(cy.pin_values[se], V3::k0);
    }
    if (cy.comment.find("shift") != std::string::npos ||
        cy.comment.find("unload") != std::string::npos) {
      EXPECT_EQ(cy.pin_values[se], V3::k1);
    }
  }
  EXPECT_EQ(arms, r.patterns.size());

  std::ostringstream os;
  prog.write(os);
  EXPECT_NE(os.str().find("on-chip clocking"), std::string::npos);
  EXPECT_NE(os.str().find("# pins: scan_clk scan_en"), std::string::npos);
}

TEST(AteExport, ExternalProgramEmitsPerPulseCycles) {
  Netlist nl = gen::make_counter(4);
  const ScanChains chains = insert_scan(nl, {.num_chains = 1});
  const ClockingScheme s = scheme_external_full(1, 3);
  AtpgOptions opts;
  opts.reverse_compaction = false;
  const AtpgRunResult r = test::session_atpg(nl, s, chains.scan_en, opts);
  ASSERT_FALSE(r.patterns.empty());
  const AteProgram prog =
      export_ate_program(nl, chains, s, r.patterns, /*on_chip=*/false);
  // Each pattern contributes one tester pulse cycle per NCP cycle.
  size_t pulse_cycles = 0, strobes = 0;
  for (const AteCycle& cy : prog.cycles) {
    if (cy.comment.find("pulse") != std::string::npos) {
      ++pulse_cycles;
      strobes += cy.strobe;
    }
  }
  size_t want = 0;
  for (const TestPattern& p : r.patterns) {
    want += s.procedures[p.ncp_index].cycles.size();
  }
  EXPECT_EQ(pulse_cycles, want);
  EXPECT_EQ(strobes, want) << "ideal external scheme strobes every frame";
}

TEST(PatternSet, TextDumpRoundsAllFields) {
  Netlist nl = gen::make_counter(4);
  insert_scan(nl, {.num_chains = 1});
  const ClockingScheme s = scheme_cpf_basic(1);
  AtpgOptions opts;
  opts.reverse_compaction = false;
  const AtpgRunResult r = test::session_atpg(nl, s, nl.find("scan_en"), opts);
  ASSERT_FALSE(r.patterns.empty());
  std::ostringstream os;
  r.patterns.write_text(os);
  const std::string txt = os.str();
  EXPECT_NE(txt.find("pattern 0"), std::string::npos);
  EXPECT_NE(txt.find("load="), std::string::npos);
  EXPECT_NE(txt.find("pi[1]="), std::string::npos) << "two frames dumped";
}

TEST(BenchIoSoc, GeneratedSocRoundTrips) {
  gen::SocParams prm;
  prm.seed = 9;
  prm.flops = 60;
  prm.gates = 500;
  Netlist nl = gen::generate_soc(prm);
  insert_scan(nl, {.num_chains = 2});
  std::ostringstream os;
  write_bench(nl, os);
  std::istringstream is(os.str());
  Netlist rt = read_bench(is, "soc_rt");
  EXPECT_EQ(rt.size(), nl.size());
  EXPECT_EQ(rt.dffs().size(), nl.dffs().size());
  EXPECT_EQ(rt.num_domains(), nl.num_domains());
  EXPECT_EQ(rt.max_level(), nl.max_level());
  // Scan/noscan annotations survive.
  size_t noscan = 0, noscan_rt = 0;
  for (GateId ff : nl.dffs()) noscan += (nl.gate(ff).flags & kFlagNoScan) != 0;
  for (GateId ff : rt.dffs()) noscan_rt += (rt.gate(ff).flags & kFlagNoScan) != 0;
  EXPECT_EQ(noscan, noscan_rt);
}

TEST(Report, RendersWithoutRunning) {
  // render_* functions must handle a synthetic result (no full run).
  flow::Table1Result r;
  for (char id : {'a', 'b', 'c', 'd', 'e'}) {
    flow::ExperimentRow row;
    row.id = std::string("(") + id + ")";
    row.desc = "synthetic";
    row.result.scheme_name = row.id;
    row.result.patterns = PatternSet("x");
    TestPattern p;
    p.ncp_index = 0;
    row.result.patterns.add(p);
    row.tester_cycles = 10;
    r.rows.push_back(std::move(row));
  }
  r.checks = flow::check_shapes(r);
  const std::string t = flow::render_table1(r);
  EXPECT_NE(t.find("(a)"), std::string::npos);
  const std::string c = flow::render_checks(r);
  EXPECT_NE(c.find("TC(a)"), std::string::npos);
  const std::string m = flow::render_markdown(r);
  EXPECT_NE(m.find("| (e) |"), std::string::npos);
}

TEST(Edt, WarmupImprovesEarlyCellEncodability) {
  // Without warm-up, cells loaded in the first cycles depend on very few
  // variables and dense-ish cubes targeting them fail to encode.
  std::vector<size_t> chains{24, 24, 24, 24};
  EdtConfig none;
  none.channels = 2;
  none.ring_length = 32;
  none.warmup_cycles = 0;
  EdtConfig warm = none;
  warm.warmup_cycles = 8;
  EdtCompressor e0(none, chains);
  EdtCompressor e1(warm, chains);
  Rng rng(11);
  int ok0 = 0, ok1 = 0;
  for (int t = 0; t < 30; ++t) {
    std::vector<CareBit> cube;
    // Target the DEEP positions (loaded first) on all chains.
    for (uint32_t c = 0; c < 4; ++c) {
      for (uint32_t p = 20; p < 24; ++p) {
        if (rng.chance(0.5)) cube.push_back({c, p, rng.chance(0.5)});
      }
    }
    ok0 += e0.encode(cube).has_value();
    ok1 += e1.encode(cube).has_value();
  }
  EXPECT_GE(ok1, ok0);
  EXPECT_GT(ok1, 25) << "warmed-up compressor should encode nearly all";
}

}  // namespace
}  // namespace occ
