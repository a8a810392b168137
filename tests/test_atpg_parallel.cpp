// Tests: the parallel deterministic PODEM stage (atpg/parallel.h).
//
// The speculative-commit protocol promises bit-identical committed
// results -- patterns, fault statuses, detection slots, Podem::Stats and
// the deterministic fault-sim work counters -- for ANY atpg_shards
// value, on any design and clocking scheme. These tests pin that
// promise across shard counts {1, 2, 3, 8} on generated SoCs (all five
// Table-1 clocking schemes) and on the committed circuits/ corpus, and
// check the wasted-speculation accounting (speculative_runs /
// discarded_cubes) stays out of the committed counters and that the
// stage's progress events follow the canonical order.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "atpg/parallel.h"
#include "core/clock_scheme.h"
#include "dft/scan.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"

namespace occ {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(OCC_CIRCUITS_DIR) + "/" + name;
}

/// Canonical serialization of everything the bit-identity contract
/// covers: every pattern bit, the per-fault status vector, the
/// committed PODEM work counters, the deterministic fault-sim work
/// counters and the per-stage pattern tallies.
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
  const Podem::Stats& ps = r.atpg.podem;
  os << "\n#podem:" << ps.runs << ',' << ps.decisions << ','
     << ps.backtracks << ',' << ps.implications;
  os << "\n#fsim:" << r.atpg.fsim.gate_evals << ','
     << r.atpg.fsim.events_processed << ','
     << r.atpg.fsim.faults_simulated << ',' << r.atpg.fsim.newly_detected;
  os << "\n#patterns:" << r.atpg.random_patterns << ','
     << r.atpg.deterministic_patterns << ','
     << r.atpg.patterns_after_compaction;
  os << "\n#cycles:" << r.tester_cycles;
  return os.str();
}

gen::SocParams mini_soc(uint64_t seed, size_t domains) {
  gen::SocParams prm;
  prm.seed = seed;
  prm.domains = domains;
  prm.domain_share.assign(domains, 1.0);
  prm.flops = 36;
  prm.gates = 300;
  prm.pis = 10;
  prm.pos = 8;
  return prm;
}

SessionConfig soc_config(const gen::SocParams& prm,
                         const ClockingScheme& scheme) {
  SessionConfig cfg;
  cfg.design(gen::generate_soc(prm))
      .scan({.num_chains = 4})
      .scheme(scheme);
  AtpgOptions opts;
  opts.backtrack_limit = 80;
  cfg.atpg(opts);
  return cfg;
}

// The tentpole promise, on the paper-style generated SOC under every
// Table-1 clocking scheme: the parallel stage commits bit-identical
// results for shard counts {1, 2, 3, 8}. The fsim shards stay 1 so the
// comparison isolates the deterministic-stage coordinator.
TEST(AtpgParallel, AllSchemesBitIdenticalAcrossShardCounts) {
  const gen::SocParams prm = mini_soc(7, 2);
  const size_t nd = 2;
  const std::pair<const char*, ClockingScheme> schemes[] = {
      {"stuck_at", scheme_stuck_at_external(nd)},
      {"external_full", scheme_external_full(nd, 3)},
      {"cpf_basic", scheme_cpf_basic(nd)},
      {"cpf_enhanced", scheme_cpf_enhanced(nd, 3)},
      {"external_constrained", scheme_external_constrained(nd, 3)},
  };
  for (const auto& [name, scheme] : schemes) {
    SCOPED_TRACE(name);
    SessionConfig seq = soc_config(prm, scheme);
    seq.engine({.fsim = {.shards = 1}, .atpg_shards = 1});
    const SessionResult r_seq = Session(std::move(seq)).run();
    EXPECT_EQ(r_seq.atpg.speculative_runs, 0u)
        << "sequential stage never speculates";
    EXPECT_EQ(r_seq.atpg.discarded_cubes, 0u);
    const std::string fp_seq = fingerprint(r_seq);
    for (const size_t shards : {2, 3, 8}) {
      SessionConfig par = soc_config(prm, scheme);
      par.engine({.fsim = {.shards = 1}, .atpg_shards = shards});
      EXPECT_EQ(fp_seq, fingerprint(Session(std::move(par)).run()))
          << "atpg_shards=" << shards;
    }
  }
}

// Progress events are emitted by the committer in canonical fault order,
// so the (done, total) sequence of the deterministic stage must not
// depend on the walker count either.
TEST(AtpgParallel, ProgressEventsIdenticalAcrossShardCounts) {
  const gen::SocParams prm = mini_soc(7, 2);
  auto progress = [&](size_t shards) {
    std::vector<std::pair<size_t, size_t>> seen;
    SessionConfig cfg = soc_config(prm, scheme_cpf_enhanced(2, 3));
    cfg.engine({.fsim = {.shards = 1}, .atpg_shards = shards})
        .observer([&](const ProgressEvent& e) {
          if (e.kind == ProgressEvent::Kind::kProgress &&
              e.stage == "podem") {
            seen.emplace_back(e.done, e.total);
          }
        });
    Session(std::move(cfg)).run();
    return seen;
  };
  const std::vector<std::pair<size_t, size_t>> seq = progress(1);
  ASSERT_GE(seq.size(), 2u) << "the 0 and done == total events at least";
  EXPECT_EQ(seq.front().first, 0u);
  EXPECT_EQ(seq.back().first, seq.back().second);
  for (const size_t shards : {2, 8}) {
    EXPECT_EQ(seq, progress(shards)) << "atpg_shards=" << shards;
  }
}

// A second, single-domain SoC with a random pre-stage: the random
// rounds consume session RNG before the deterministic stage, so this
// also pins that the parallel stage picks up the RNG stream at exactly
// the sequential position.
TEST(AtpgParallel, SingleDomainSocWithRandomStage) {
  const gen::SocParams prm = mini_soc(11, 1);
  SessionConfig seq = soc_config(prm, scheme_cpf_basic(1));
  AtpgOptions opts;
  opts.backtrack_limit = 80;
  opts.random_rounds = 3;
  seq.atpg(opts).engine({.fsim = {.shards = 1}, .atpg_shards = 1});
  const std::string fp_seq = fingerprint(Session(std::move(seq)).run());
  for (const size_t shards : {3, 8}) {
    SessionConfig par = soc_config(prm, scheme_cpf_basic(1));
    par.atpg(opts).engine({.fsim = {.shards = 1}, .atpg_shards = shards});
    EXPECT_EQ(fp_seq, fingerprint(Session(std::move(par)).run()))
        << "atpg_shards=" << shards;
  }
}

// Corpus circuits through the design_file() front door.
TEST(AtpgParallel, CorpusBitIdenticalAcrossShardCounts) {
  const std::pair<const char*, size_t> designs[] = {
      {"s27m.bench", 2},   // two domains + a non-scan flop
      {"s344c.bench", 1},  // single-domain s344-class
  };
  for (const auto& [name, nd] : designs) {
    SCOPED_TRACE(name);
    auto config = [&, name = name, nd = nd](size_t atpg_shards) {
      SessionConfig cfg;
      cfg.design_file(corpus_path(name))
          .scan({.num_chains = 2})
          .scheme(nd > 1 ? scheme_cpf_enhanced(nd, 3)
                         : scheme_cpf_basic(nd))
          .on_chip_clocking(true)
          .engine({.fsim = {.shards = 1}, .atpg_shards = atpg_shards});
      return cfg;
    };
    const std::string fp_seq =
        fingerprint(Session(config(1)).run());
    for (const size_t shards : {2, 3, 8}) {
      EXPECT_EQ(fp_seq, fingerprint(Session(config(shards)).run()))
          << "atpg_shards=" << shards;
    }
  }
}

// Both parallel layers at once: atpg_shards = 0 follows the session's
// fault-sim shard count, and the combination stays bit-identical to the
// fully sequential pipeline. Also crosses the two shard settings.
TEST(AtpgParallel, ComposesWithShardedFaultSimulation) {
  const gen::SocParams prm = mini_soc(23, 2);
  SessionConfig seq = soc_config(prm, scheme_cpf_basic(2));
  seq.engine({.fsim = {.shards = 1}, .atpg_shards = 1});
  const std::string fp_seq = fingerprint(Session(std::move(seq)).run());

  SessionConfig follow = soc_config(prm, scheme_cpf_basic(2));
  follow.engine({.fsim = {.shards = 3}});  // atpg_shards 0 = follow (3)
  EXPECT_EQ(fp_seq, fingerprint(Session(std::move(follow)).run()));

  SessionConfig crossed = soc_config(prm, scheme_cpf_basic(2));
  crossed.engine({.fsim = {.shards = 2}, .atpg_shards = 8});
  EXPECT_EQ(fp_seq, fingerprint(Session(std::move(crossed)).run()));
}

// atpg_shards resolution: 0 follows the (resolved) fsim shard count.
TEST(AtpgParallel, ResolveFollowsFsimShards) {
  const Netlist nl = gen::generate_soc(mini_soc(3, 1));
  const ClockingScheme scheme = scheme_cpf_basic(1);
  ShardedFaultSim fsim(nl, scheme, kNoGate, 3);
  EngineOptions engine;
  EXPECT_EQ(resolve_atpg_shards(engine.atpg_shards, fsim.shards()), 3u);
  engine.atpg_shards = 5;
  EXPECT_EQ(resolve_atpg_shards(engine.atpg_shards, fsim.shards()), 5u);
  engine.atpg_shards = 1;
  EXPECT_EQ(resolve_atpg_shards(engine.atpg_shards, fsim.shards()), 1u);
}

}  // namespace
}  // namespace occ
