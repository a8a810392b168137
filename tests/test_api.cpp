// Tests: occ::Session pipeline API -- golden paths, observer ordering,
// error cases, shutdown on a throwing observer and sharded
// fault-simulation determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.h"
#include "dft/scan.h"
#include "fsim/sharded.h"
#include "gen/circuits.h"
#include "gen/socgen.h"
#include "util/check.h"

namespace occ {
namespace {

ClockingScheme comb_sa_scheme() {
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
  return s;
}

// ---- golden paths --------------------------------------------------------

TEST(Session, C17GoldenPath) {
  SessionConfig cfg;
  cfg.design(gen::make_c17()).scheme(comb_sa_scheme());
  const SessionResult r = Session(std::move(cfg)).run();
  EXPECT_DOUBLE_EQ(r.test_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
  EXPECT_GT(r.pattern_count(), 0u);
  EXPECT_FALSE(r.has_scan_chains);
  EXPECT_EQ(r.tester_cycles, 0u);
  EXPECT_EQ(r.scheme.name, "comb_sa");
  ASSERT_NE(r.netlist, nullptr);
  EXPECT_GT(r.netlist->size(), 0u);
  EXPECT_FALSE(r.summary().empty());
}

TEST(Session, CounterWithScanGoldenPath) {
  AtpgOptions opts;
  opts.random_rounds = 4;
  SessionConfig cfg;
  cfg.design(gen::make_counter(8))
      .scan({.num_chains = 2})
      .scheme(scheme_stuck_at_external(1))
      .atpg(opts);
  const SessionResult r = Session(std::move(cfg)).run();
  EXPECT_GT(r.fault_coverage(), 0.9);
  EXPECT_TRUE(r.has_scan_chains);
  EXPECT_EQ(r.chains.chains.size(), 2u);
  EXPECT_NE(r.scan_en, kNoGate);
  EXPECT_GT(r.tester_cycles, 0u);
  // The result owns the design it built and scan-inserted.
  EXPECT_NE(r.netlist->find("scan_en"), kNoGate);
}

TEST(Session, RerunIsDeterministic) {
  SessionConfig cfg;
  cfg.design(gen::make_alu4())
      .scheme(comb_sa_scheme())
      .seed(777);
  Session s(std::move(cfg));
  const SessionResult r1 = s.run();
  const SessionResult r2 = s.run();
  EXPECT_EQ(r1.pattern_count(), r2.pattern_count());
  EXPECT_EQ(r1.atpg.faults.count(FaultStatus::kDetected),
            r2.atpg.faults.count(FaultStatus::kDetected));
}

// ---- observer ordering ---------------------------------------------------

TEST(Session, ObserverCallbackOrdering) {
  std::vector<ProgressEvent> events;
  SessionConfig cfg;
  cfg.design(gen::make_counter(6))
      .scan({.num_chains = 1})
      .scheme(scheme_stuck_at_external(1))
      .observer([&](const ProgressEvent& e) { events.push_back(e); });
  const SessionResult r = Session(std::move(cfg)).run();
  ASSERT_GT(r.pattern_count(), 0u);

  // Begin/end events nest: every begin is closed by a matching end.
  std::vector<std::string> stack;
  std::vector<std::string> begins;
  for (const auto& e : events) {
    switch (e.kind) {
      case ProgressEvent::Kind::kStageBegin:
        stack.push_back(e.stage);
        begins.push_back(e.stage);
        break;
      case ProgressEvent::Kind::kStageEnd:
        ASSERT_FALSE(stack.empty());
        EXPECT_EQ(stack.back(), e.stage);
        stack.pop_back();
        break;
      case ProgressEvent::Kind::kProgress:
        ASSERT_FALSE(stack.empty());
        EXPECT_LE(e.done, e.total);
        break;
    }
  }
  EXPECT_TRUE(stack.empty());
  const std::vector<std::string> expected = {
      "build",         "scan",    "faults", "source:random",
      "source:podem",  "compact", "cost"};
  EXPECT_EQ(begins, expected);
}

// ---- error cases ---------------------------------------------------------

TEST(Session, NoDesignThrows) {
  SessionConfig cfg;
  cfg.scheme(comb_sa_scheme());
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
}

TEST(Session, EmptyNetlistThrows) {
  SessionConfig cfg;
  cfg.design(Netlist("empty")).scheme(comb_sa_scheme());
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
}

TEST(Session, SchemeWithZeroProceduresThrows) {
  ClockingScheme s;
  s.name = "hollow";
  SessionConfig cfg;
  cfg.design(gen::make_c17()).scheme(s);
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
}

TEST(Session, MissingSchemeThrows) {
  SessionConfig cfg;
  cfg.design(gen::make_c17());
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
}

TEST(Session, CompressionWithoutChainsThrows) {
  SessionConfig cfg;
  cfg.design(gen::make_c17())
      .scheme(comb_sa_scheme())
      .compress(EdtConfig{});
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
}

// ---- shutdown on error --------------------------------------------------

// An observer that throws inside the deterministic stage must make run()
// throw, with one walker (no pool) and with four. With four, the
// committer has to close the walkers' ring and wake every walker on its
// way out, or the pool's run() waits forever for walkers blocked on the
// ring; the ctest TIMEOUT of *Shutdown* tests turns such a hang into a
// failure.
TEST(SessionShutdown, ObserverThrowInPodemStageReachesCaller) {
  gen::SocParams prm;
  prm.seed = 7;
  prm.domains = 2;
  prm.domain_share = {1.0, 1.0};
  prm.flops = 36;
  prm.gates = 300;
  prm.pis = 10;
  prm.pos = 8;
  AtpgOptions opts;
  opts.random_rounds = 0;  // every fault reaches the deterministic stage
  for (const size_t shards : {1, 4}) {
    SCOPED_TRACE(shards);
    bool thrown = false;
    SessionConfig cfg;
    cfg.design(gen::generate_soc(prm))
        .scan({.num_chains = 4})
        .scheme(scheme_cpf_basic(2))
        .atpg(opts)
        .engine({.fsim = {.shards = 1}, .atpg_shards = shards})
        .observer([&](const ProgressEvent& e) {
          if (e.kind == ProgressEvent::Kind::kProgress &&
              e.stage == "podem" && !thrown) {
            thrown = true;
            throw std::runtime_error("observer stops the session");
          }
        });
    EXPECT_THROW(Session(std::move(cfg)).run(), std::runtime_error);
    EXPECT_TRUE(thrown);
  }
}

// ---- sharded fault simulation -------------------------------------------

TEST(ShardedFaultSim, BitIdenticalToSequential) {
  gen::SocParams params;
  params.seed = 5;
  params.flops = 40;
  params.gates = 400;
  params.pis = 8;
  params.pos = 8;
  Netlist nl = gen::generate_soc(params);
  insert_scan(nl, {.num_chains = 2});
  const GateId se = nl.find("scan_en");
  const ClockingScheme scheme = scheme_cpf_basic(nl.num_domains());
  // Short batches, so no one batch detects everything another does.
  constexpr size_t kBatch = 16;
  Rng rng(99);
  PatternSet ps(scheme.name);
  for (size_t i = 0; i < 3 * kBatch; ++i) {
    TestPattern p;
    p.ncp_index = 0;
    p.pi_frames.assign(scheme.procedures[0].cycles.size(),
                       std::vector<V3>(nl.inputs().size(), V3::kX));
    p.load.assign(scan_cells(nl).size(), V3::kX);
    p.random_fill(scheme.procedures[0], rng);
    ps.add(std::move(p));
  }
  std::vector<PatternBatch> batches;
  for (size_t first = 0; first < ps.size(); first += kBatch) {
    batches.push_back(
        pack_batch(ps, first, kBatch, nl, scheme.procedures[0]));
  }

  // One engine grades two lists with the same faults but diverging
  // statuses, alternately -- what compaction does with the session's
  // list and its fresh re-grade list -- so both share the engine's
  // cached unit list. Every call must match a fresh sequential engine
  // on a reference copy of the same list.
  struct Step {
    size_t list;
    size_t batch;
  };
  const Step steps[] = {{0, 0}, {1, 1}, {0, 1}, {1, 0}, {0, 2}, {1, 2}};
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFaultSim sharded(nl, scheme, se, shards);
    FaultList a = FaultList::build(nl, scheme.model);
    FaultList b = a;  // the copy, taken before the first batch
    FaultList* lists[2] = {&a, &b};
    FaultList refs[2] = {a, b};
    size_t detected = 0;
    bool diverged = false;
    for (const Step& step : steps) {
      SCOPED_TRACE("list " + std::to_string(step.list) + ", batch " +
                   std::to_string(step.batch));
      FaultList& fl = *lists[step.list];
      FaultList& ref = refs[step.list];
      std::vector<std::pair<size_t, unsigned>> dets, ref_dets;
      const FsimStats st =
          sharded.detect_faults(batches[step.batch], fl, &dets);
      const FsimStats ref_st = NcpFaultSim(nl, scheme, se).detect_faults(
          batches[step.batch], ref, &ref_dets);
      EXPECT_EQ(st.faults_simulated, ref_st.faults_simulated);
      EXPECT_EQ(st.newly_detected, ref_st.newly_detected);
      EXPECT_EQ(st.newly_possibly, ref_st.newly_possibly);
      EXPECT_EQ(st.gate_evals, ref_st.gate_evals);
      EXPECT_EQ(st.events_processed, ref_st.events_processed);
      EXPECT_EQ(dets, ref_dets);
      ASSERT_EQ(fl.size(), ref.size());
      for (size_t i = 0; i < fl.size(); ++i) {
        ASSERT_EQ(fl.status(i), ref.status(i)) << "fault " << i;
      }
      detected += st.newly_detected;
      for (size_t i = 0; i < a.size(); ++i) {
        diverged = diverged || a.status(i) != b.status(i);
      }
    }
    EXPECT_GT(detected, 0u);
    EXPECT_TRUE(diverged) << "the two lists never had different statuses";
  }
}

TEST(ShardedFaultSim, TransitionSessionIdenticalAcrossShards) {
  // Whole-pipeline determinism on a two-domain circuit with a
  // transition scheme (exercises NCP batching in compaction too).
  Netlist nl = gen::make_two_domain_link(4);
  insert_scan(nl, {.num_chains = 2});
  const GateId se = nl.find("scan_en");
  AtpgOptions opts;
  opts.random_rounds = 4;

  auto run_with = [&](size_t shards) {
    SessionConfig cfg;
    cfg.design(nl).scan_en(se).scheme(scheme_cpf_enhanced(2, 3))
        .atpg(opts).engine({.fsim = {.shards = shards}});
    return Session(std::move(cfg)).run();
  };
  const SessionResult r1 = run_with(1);
  const SessionResult r4 = run_with(4);
  EXPECT_EQ(r1.pattern_count(), r4.pattern_count());
  EXPECT_EQ(r1.atpg.fsim.gate_evals, r4.atpg.fsim.gate_evals);
  ASSERT_EQ(r1.atpg.faults.size(), r4.atpg.faults.size());
  for (size_t i = 0; i < r1.atpg.faults.size(); ++i) {
    ASSERT_EQ(r1.atpg.faults.status(i), r4.atpg.faults.status(i));
  }
}

// ---- pluggable sources ---------------------------------------------------

TEST(Session, ExternalCubeSourceGradesCubes) {
  Netlist nl = gen::make_counter(8);
  insert_scan(nl, {.num_chains = 2});
  const GateId se = nl.find("scan_en");
  const ClockingScheme scheme = scheme_stuck_at_external(1);

  // First session produces cubes; second session re-grades them as an
  // external source (no PODEM of its own).
  AtpgOptions keep;
  keep.keep_cubes = true;
  SessionConfig produce;
  produce.design(nl).scan_en(se).scheme(scheme).atpg(keep);
  const SessionResult first = Session(std::move(produce)).run();
  ASSERT_GT(first.atpg.cubes.size(), 0u);

  AtpgOptions nocompact;
  nocompact.reverse_compaction = false;
  SessionConfig regrade;
  regrade.design(nl).scan_en(se).scheme(scheme).atpg(nocompact)
      .source(std::make_shared<ExternalCubeSource>(first.atpg.cubes));
  const SessionResult second = Session(std::move(regrade)).run();
  EXPECT_EQ(second.atpg.external_patterns, first.atpg.cubes.size());
  EXPECT_EQ(second.pattern_count(), first.atpg.cubes.size());
  // Filled deterministic cubes must re-detect a solid majority of what
  // the original run detected (random fill of X bits only adds).
  EXPECT_GT(second.fault_coverage(), 0.9 * first.fault_coverage());
}

TEST(Session, SinksReceiveFinishedResult) {
  std::ostringstream summary;
  SessionConfig cfg;
  cfg.design(gen::make_c17())
      .scheme(comb_sa_scheme())
      .sink(std::make_shared<SummarySink>(summary));
  const SessionResult r = Session(std::move(cfg)).run();
  EXPECT_EQ(summary.str(), r.summary());
  EXPECT_NE(summary.str().find("comb_sa"), std::string::npos);
}

}  // namespace
}  // namespace occ
