// Tests: the committed external-design corpus (circuits/*.bench) as
// first-class Session workloads -- parseability and expected shape of
// every corpus circuit, the SessionConfig design_file()/design()
// front doors, and the parity pins the pipeline promises on external
// designs: sequential vs sharded fault simulation bit-identical, and
// cone-limited fault propagation identical to exhaustive full-netlist
// simulation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/session.h"
#include "core/clock_scheme.h"
#include "fault/fault_list.h"
#include "netlist/bench_io.h"
#include "netlist/library.h"
#include "netlist/stats.h"
#include "test_helpers.h"
#include "util/check.h"

namespace occ {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(OCC_CIRCUITS_DIR) + "/" + name;
}

/// Canonical serialization of a finished run: every pattern bit plus the
/// per-fault status vector. Two runs are "bit-identical" iff these match.
std::string fingerprint(const SessionResult& r) {
  std::ostringstream os;
  for (const TestPattern& p : r.atpg.patterns) {
    os << p.ncp_index << '|';
    for (const auto& frame : p.pi_frames) {
      for (V3 v : frame) os << v3_char(v);
      os << '/';
    }
    os << '|';
    for (V3 v : p.load) os << v3_char(v);
    os << '\n';
  }
  os << "#faults:";
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    os << static_cast<int>(r.atpg.faults.status(i));
  }
  os << "\n#cycles:" << r.tester_cycles;
  return os.str();
}

SessionConfig corpus_config(const std::string& circuit, size_t chains) {
  const Netlist parsed = read_bench_file(corpus_path(circuit));
  SessionConfig cfg;
  cfg.design_file(corpus_path(circuit))
      .scan({.num_chains = chains})
      .scheme(scheme_cpf_basic(parsed.num_domains()))
      .on_chip_clocking(true);
  return cfg;
}

TEST(Corpus, EveryCircuitParsesFinalized) {
  for (const char* name : {"s27.bench", "s27m.bench", "dialect.bench",
                           "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    const Netlist nl = read_bench_file(corpus_path(name));
    EXPECT_TRUE(nl.finalized());
    EXPECT_GT(nl.size(), 0u);
  }
}

TEST(Corpus, S27HasTheClassicShape) {
  const Netlist nl = read_bench_file(corpus_path("s27.bench"));
  const NetlistStats s = NetlistStats::compute(nl);
  EXPECT_EQ(s.inputs, 4u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_EQ(s.flops, 3u);
  EXPECT_EQ(s.logic_gates, 10u);
  EXPECT_EQ(nl.num_domains(), 1u);
}

TEST(Corpus, S27mCarriesExtendedDialectAnnotations) {
  const Netlist nl = read_bench_file(corpus_path("s27m.bench"));
  EXPECT_EQ(nl.num_domains(), 2u);
  size_t noscan = 0;
  for (GateId ff : nl.dffs()) {
    if (nl.gate(ff).flags & kFlagNoScan) ++noscan;
  }
  EXPECT_EQ(noscan, 1u);
}

TEST(Corpus, DialectCircuitCoversTimedCells) {
  const Netlist nl = read_bench_file(corpus_path("dialect.bench"));
  const NetlistStats s = NetlistStats::compute(nl);
  EXPECT_EQ(s.latches, 2u);
  EXPECT_EQ(s.per_type[static_cast<size_t>(GateType::kDffC)], 2u);
  EXPECT_EQ(s.per_type[static_cast<size_t>(GateType::kTie0)], 1u);
  EXPECT_EQ(s.per_type[static_cast<size_t>(GateType::kTie1)], 1u);
  EXPECT_EQ(s.per_type[static_cast<size_t>(GateType::kXSource)], 1u);
  EXPECT_EQ(s.per_type[static_cast<size_t>(GateType::kMux2)], 1u);
}

TEST(Corpus, GeneratedCircuitsMatchCommittedShape) {
  // `occ corpus` must reproduce the committed files; guard the shape so
  // a generator change cannot silently diverge from the checked-in
  // corpus (regenerate + recommit when changing gen::generate_soc).
  const Netlist s344c = read_bench_file(corpus_path("s344c.bench"));
  EXPECT_EQ(s344c.dffs().size(), 15u);
  EXPECT_EQ(s344c.num_domains(), 1u);
  const Netlist s1423c = read_bench_file(corpus_path("s1423c.bench"));
  EXPECT_EQ(s1423c.dffs().size(), 74u);
  EXPECT_EQ(s1423c.num_domains(), 2u);
  size_t noscan = 0;
  for (GateId ff : s1423c.dffs()) {
    if (s1423c.gate(ff).flags & kFlagNoScan) ++noscan;
  }
  EXPECT_GT(noscan, 0u);
}

TEST(Corpus, DesignSourcesAreEquivalent) {
  // The same circuit through both front doors (file, pre-parsed
  // in-memory netlist) must yield identical runs.
  SessionResult from_file =
      Session(corpus_config("s27.bench", 2)).run();

  SessionConfig mem_cfg;
  mem_cfg.design(read_bench_file(corpus_path("s27.bench")))
      .scan({.num_chains = 2})
      .scheme(scheme_cpf_basic(1))
      .on_chip_clocking(true);
  SessionResult from_memory = Session(std::move(mem_cfg)).run();

  EXPECT_EQ(fingerprint(from_file), fingerprint(from_memory));
}

TEST(Corpus, DesignSourceMisconfigurationRejected) {
  SessionConfig none;
  none.scheme(scheme_cpf_basic(1));
  EXPECT_THROW(Session(std::move(none)).run(), CheckError);

  SessionConfig both;
  Netlist nl = read_bench_file(corpus_path("s27.bench"));
  both.design(nl)
      .design_file(corpus_path("s27.bench"))
      .scheme(scheme_cpf_basic(1));
  EXPECT_THROW(Session(std::move(both)).run(), CheckError);

  SessionConfig missing;
  missing.design_file(corpus_path("no_such_circuit.bench"))
      .scheme(scheme_cpf_basic(1));
  EXPECT_THROW(Session(std::move(missing)).run(), CheckError);
}

TEST(Corpus, ShardedBitIdenticalToSequential) {
  for (const char* name : {"s27m.bench", "s344c.bench", "s1423c.bench"}) {
    SCOPED_TRACE(name);
    SessionConfig seq = corpus_config(name, 3);
    seq.engine({.fsim = {.shards = 1}});
    const std::string fp_seq = fingerprint(Session(std::move(seq)).run());
    for (size_t shards : {2, 5}) {
      SessionConfig par = corpus_config(name, 3);
      par.engine({.fsim = {.shards = shards}});
      EXPECT_EQ(fp_seq, fingerprint(Session(std::move(par)).run()))
          << "shards=" << shards;
    }
  }
}

TEST(Corpus, ConeLimitedBitIdenticalToExhaustive) {
  // The session's (cone-limited) detected set must be exactly what
  // exhaustive full good/faulty simulation of every gate (RefFaultSim)
  // finds when it re-grades the final pattern set against a fresh fault
  // list.
  for (const char* name : {"s27.bench", "s27m.bench", "s344c.bench"}) {
    SCOPED_TRACE(name);
    const SessionResult r = Session(corpus_config(name, 3)).run();
    const PatternSet& ps = r.atpg.patterns;
    ASSERT_GT(ps.size(), 0u);
    FaultList ex = FaultList::build(*r.netlist, r.scheme.model);
    test::ref_grade_window(*r.netlist, r.scheme, r.scan_en, ps, 0,
                           ps.size(), ex, nullptr);
    ASSERT_EQ(ex.size(), r.atpg.faults.size());
    for (size_t i = 0; i < ex.size(); ++i) {
      ASSERT_EQ(ex.status(i) == FaultStatus::kDetected,
                r.atpg.faults.status(i) == FaultStatus::kDetected)
          << "fault " << fault_to_string(*r.netlist, ex.fault(i));
    }
  }
}

TEST(Corpus, InterDomainSchemeRunsOnMultiDomainCorpus) {
  const Netlist parsed = read_bench_file(corpus_path("s27m.bench"));
  SessionConfig cfg;
  cfg.design_file(corpus_path("s27m.bench"))
      .scan({.num_chains = 2})
      .scheme(scheme_cpf_enhanced(parsed.num_domains(), 3))
      .on_chip_clocking(true);
  const SessionResult r = Session(std::move(cfg)).run();
  EXPECT_GT(r.pattern_count(), 0u);
  EXPECT_GT(r.test_coverage(), 0.0);
  EXPECT_GT(r.tester_cycles, 0u);
}

}  // namespace
}  // namespace occ
