// Tests: occ::CompiledDesign + occ::DesignCache -- the bit-identity
// contract (a run over a cached artifact reproduces a fresh run's
// patterns, fault statuses and deterministic work counters exactly, for
// every scheme, ATPG engine mode and shard count), concurrent sessions over
// one shared cache (run under TSan in CI), which configurations share a
// cache entry, and the cache observability counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/compiled_design.h"
#include "api/session.h"
#include "core/clock_scheme.h"
#include "gen/socgen.h"
#include "netlist/bench_io.h"
#include "test_helpers.h"
#include "util/check.h"

namespace occ {
namespace {

/// Small multi-domain SOC shared by every test: big enough that all
/// five schemes produce non-trivial pattern sets, small enough that the
/// full scheme x mode x shard matrix stays in test-suite time.
gen::SocParams soc_params() {
  gen::SocParams p;
  p.seed = 5;
  p.domains = 2;
  p.flops = 24;
  p.gates = 150;
  p.pis = 6;
  p.pos = 6;
  return p;
}

/// Cheap search budget for the identity sweeps: a starved PODEM aborts
/// more faults than the production defaults would, which is fine --
/// the contract under test is fresh == cached, not coverage.
AtpgOptions cheap_atpg() {
  AtpgOptions o;
  o.backtrack_limit = 50;
  return o;
}

/// FNV-1a fingerprint of everything the bit-identity contract covers:
/// pattern bytes (ncp index, PI frames, scan loads), per-fault statuses,
/// pattern-source tallies and the deterministic engine work counters.
uint64_t result_fingerprint(const SessionResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const TestPattern& p : r.atpg.patterns) {
    mix(p.ncp_index);
    for (const auto& frame : p.pi_frames) {
      for (const V3 v : frame) mix(static_cast<uint64_t>(v));
    }
    for (const V3 v : p.load) mix(static_cast<uint64_t>(v));
  }
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    mix(static_cast<uint64_t>(r.atpg.faults.status(i)));
  }
  mix(r.atpg.random_patterns);
  mix(r.atpg.deterministic_patterns);
  mix(r.atpg.patterns_after_compaction);
  mix(r.atpg.fsim.gate_evals);
  mix(r.atpg.fsim.events_processed);
  mix(r.atpg.podem.decisions);
  mix(r.atpg.podem.backtracks);
  mix(r.atpg.escalations);
  mix(r.atpg.sat_probe_wins);
  mix(r.atpg.sat_refutations);
  mix(r.atpg.sat.solves);
  mix(r.atpg.sat.conflicts);
  mix(r.tester_cycles);
  return h;
}

struct SchemeSpec {
  const char* id;
  bool on_chip;
  ClockingScheme scheme;
};

std::vector<SchemeSpec> five_schemes(size_t nd) {
  // max_pulses 2 keeps the burst schemes' capture-procedure count (and
  // with it per-session ATPG time) small; the five schemes still cover
  // every distinct artifact shape (single-frame stuck-at, multi-pulse
  // external, per-domain CPF, inter-domain enhanced, constrained).
  return {
      {"stuck_at", false, scheme_stuck_at_external(nd)},
      {"external", false, scheme_external_full(nd, 2)},
      {"cpf_basic", true, scheme_cpf_basic(nd)},
      {"cpf_enhanced", true, scheme_cpf_enhanced(nd, 2)},
      {"constrained", false, scheme_external_constrained(nd, 2)},
  };
}

SessionConfig make_config(const SchemeSpec& spec,
                          const std::shared_ptr<DesignCache>& cache,
                          EngineOptions engine = {}) {
  SessionConfig cfg;
  cfg.design(gen::generate_soc(soc_params()))
      .scan({.num_chains = 2})
      .scheme(spec.scheme)
      .atpg(cheap_atpg())
      .on_chip_clocking(spec.on_chip)
      .engine(engine);
  if (cache != nullptr) cfg.design_cache(cache);
  return cfg;
}

// ---- bit-identity across schemes ----------------------------------------

TEST(CompiledDesign, CachedVsFreshBitIdentityAcrossSchemes) {
  const auto cache = std::make_shared<DesignCache>();
  const auto specs = five_schemes(soc_params().domains);
  for (const SchemeSpec& spec : specs) {
    const SessionResult fresh =
        Session(make_config(spec, nullptr)).run();
    const SessionResult cold = Session(make_config(spec, cache)).run();
    const SessionResult warm = Session(make_config(spec, cache)).run();
    EXPECT_EQ(result_fingerprint(fresh), result_fingerprint(cold))
        << spec.id << ": cold cached run diverged from fresh";
    EXPECT_EQ(result_fingerprint(fresh), result_fingerprint(warm))
        << spec.id << ": warm cached run diverged from fresh";
  }
  const DesignCache::Stats st = cache->stats();
  EXPECT_EQ(st.misses, specs.size());  // one cold build per scheme
  EXPECT_EQ(st.hits, specs.size());    // one warm fetch per scheme
  EXPECT_GT(st.resident_bytes, 0u);
}

// ---- bit-identity across engine modes and shard counts ------------------

TEST(CompiledDesign, CachedVsFreshBitIdentityAcrossModesAndShards) {
  const SchemeSpec spec{"cpf_basic", true,
                        scheme_cpf_basic(soc_params().domains)};
  // The abort ladder's two ends: a probe budget of one conflict (the
  // probe gives up on every abort that needs search, which stays
  // aborted) and the default budget.
  for (const uint64_t budget :
       {uint64_t{1}, EngineOptions{}.sat_conflict_budget}) {
    SCOPED_TRACE("sat_conflict_budget " + std::to_string(budget));
    const auto config = [&](const std::shared_ptr<DesignCache>& cache,
                            size_t shards) {
      return make_config(spec, cache,
                         {.fsim = {.shards = shards},
                          .sat_conflict_budget = budget});
    };
    // One cache per budget, shared across the shard sweep: shard count
    // must not change results OR require a rebuild (same content key).
    const auto cache = std::make_shared<DesignCache>();
    uint64_t first_fp = 0;
    for (const size_t shards : {size_t{1}, size_t{3}}) {
      const SessionResult fresh = Session(config(nullptr, shards)).run();
      const SessionResult cached = Session(config(cache, shards)).run();
      EXPECT_EQ(result_fingerprint(fresh), result_fingerprint(cached))
          << "shards " << shards;
      if (first_fp == 0) {
        first_fp = result_fingerprint(fresh);
        // The verdicts themselves agree with the complete search.
        EXPECT_GT(test::expect_untestable_verdicts_hold(fresh), 0u);
      } else {
        EXPECT_EQ(first_fp, result_fingerprint(fresh))
            << "shard count changed results";
      }
    }
    EXPECT_EQ(cache->stats().misses, 1u)
        << "shard sweep must reuse one compiled artifact";
  }
}

// ---- SAT probes over cached models ---------------------------------------

TEST(CompiledDesign, CachedVsFreshBitIdentityWithSatBackend) {
  // Starved PODEM so the SAT probes see a real abort pool; the cached
  // runs lower every probe from the frozen unrolled models -- the
  // conflicts/solves must match a fresh run's exactly.
  AtpgOptions starved;
  starved.backtrack_limit = 10;
  const SchemeSpec spec{"cpf_basic", true,
                        scheme_cpf_basic(soc_params().domains)};
  const auto cache = std::make_shared<DesignCache>();
  auto run_one = [&](const std::shared_ptr<DesignCache>& c) {
    SessionConfig cfg = make_config(spec, c);
    cfg.atpg(starved);
    return Session(std::move(cfg)).run();
  };
  const SessionResult fresh = run_one(nullptr);
  const SessionResult cold = run_one(cache);
  const SessionResult warm = run_one(cache);
  EXPECT_GT(fresh.atpg.sat.solves, 0u) << "workload must exercise SAT";
  EXPECT_EQ(result_fingerprint(fresh), result_fingerprint(cold));
  EXPECT_EQ(result_fingerprint(fresh), result_fingerprint(warm));
}

// ---- prepared-artifact injection ----------------------------------------

TEST(CompiledDesign, PrepareOnceExecuteMany) {
  const SchemeSpec spec{"cpf_basic", true,
                        scheme_cpf_basic(soc_params().domains)};
  Session preparer(make_config(spec, nullptr));
  const std::shared_ptr<const CompiledDesign> cd = preparer.prepare();
  ASSERT_NE(cd, nullptr);
  EXPECT_TRUE(cd->has_scan_chains());

  const SessionResult baseline = preparer.run();
  for (int i = 0; i < 2; ++i) {
    SessionConfig cfg;
    cfg.compiled(cd)
        .atpg(cheap_atpg())
        .on_chip_clocking(spec.on_chip)
        .engine({.fsim = {.shards = 1}});
    const SessionResult r = Session(std::move(cfg)).run();
    EXPECT_EQ(result_fingerprint(baseline), result_fingerprint(r))
        << "injected-artifact run " << i << " diverged";
  }
}

TEST(CompiledDesign, InjectedArtifactRejectsConflictingSources) {
  Session preparer(make_config(
      {"stuck_at", false, scheme_stuck_at_external(soc_params().domains)},
      nullptr));
  const auto cd = preparer.prepare();
  // The artifact fixes its design, scan setup and scheme, and is never
  // looked up in a cache: each setter alongside it is an error, not a
  // silently ignored setting.
  const std::vector<
      std::pair<const char*, std::function<void(SessionConfig&)>>>
      conflicts = {
          {"design", [&](SessionConfig& c) { c.design(cd->netlist()); }},
          {"scan", [](SessionConfig& c) { c.scan({.num_chains = 2}); }},
          {"chains", [&](SessionConfig& c) { c.chains(cd->chains()); }},
          {"scan_en", [&](SessionConfig& c) { c.scan_en(cd->scan_en()); }},
          {"design_cache",
           [](SessionConfig& c) {
             c.design_cache(std::make_shared<DesignCache>());
           }},
      };
  for (const auto& [setter, add] : conflicts) {
    SCOPED_TRACE(setter);
    SessionConfig cfg;
    cfg.compiled(cd);
    add(cfg);
    EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
  }
}

// ---- concurrent sessions over one shared cache (TSan-covered) -----------

TEST(CompiledDesign, ConcurrentSessionsShareOneBuild) {
  const SchemeSpec spec{"cpf_enhanced", true,
                        scheme_cpf_enhanced(soc_params().domains, 2)};
  const auto cache = std::make_shared<DesignCache>();
  constexpr size_t kThreads = 4;
  std::vector<uint64_t> fps(kThreads, 0);
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const SessionResult r = Session(make_config(spec, cache)).run();
        fps[t] = result_fingerprint(r);
      });
    }
    for (auto& w : workers) w.join();
  }
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(fps[0], fps[t]) << "thread " << t << " diverged";
  }
  const DesignCache::Stats st = cache->stats();
  // In-flight build dedup: exactly one thread builds, the rest block on
  // the shared future and then share the frozen artifact.
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, kThreads - 1);
}

TEST(CompiledDesign, ConfigCopiesPrepareConcurrently) {
  // Copies of one config share its immutable netlist: sessions
  // preparing from them on several threads must not race (TSan job),
  // and each artifact holds that one netlist. A freshly parsed netlist
  // has not built Netlist::find()'s lazy name index yet.
  SessionConfig base;
  base.design(read_bench_file(std::string(OCC_CIRCUITS_DIR) + "/s344c.bench"))
      .scheme(scheme_cpf_basic(1));
  std::vector<std::shared_ptr<const CompiledDesign>> cds(4);
  std::latch start(static_cast<std::ptrdiff_t>(cds.size()));
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < cds.size(); ++t) {
      workers.emplace_back([&, t] {
        Session session(base);
        start.arrive_and_wait();  // prepare() calls overlap
        cds[t] = session.prepare();
      });
    }
    for (auto& w : workers) w.join();
  }
  for (const auto& cd : cds) {
    EXPECT_EQ(&cd->netlist(), &cds[0]->netlist());
    EXPECT_EQ(cd->scan_en(), cds[0]->netlist().find("scan_en"));
  }
}

// ---- cache keying -------------------------------------------------------

TEST(CompiledDesign, CacheKeySeparatesConfigurations) {
  // Every configuration goes through one cache; prepare() alone decides
  // hit or miss, so no patterns run.
  const auto cache = std::make_shared<DesignCache>();
  std::vector<std::string> stages;  // stages begun by the last prepare()
  const auto builds = [&](SessionConfig cfg) {
    stages.clear();
    cfg.design_cache(cache).observer([&](const ProgressEvent& e) {
      if (e.kind == ProgressEvent::Kind::kStageBegin) {
        stages.push_back(e.stage);
      }
    });
    const uint64_t misses = cache->stats().misses;
    Session(std::move(cfg)).prepare();
    return cache->stats().misses > misses;
  };
  const auto file = [](const char* name, size_t chains, ClockingScheme s) {
    SessionConfig cfg;
    cfg.design_file(std::string(OCC_CIRCUITS_DIR) + "/" + name)
        .scan({.num_chains = chains})
        .scheme(std::move(s));
    return cfg;
  };
  const std::vector<std::string> cold = {"build", "scan", "compile"};

  EXPECT_TRUE(builds(file("s27.bench", 1, scheme_cpf_basic(1))));
  EXPECT_EQ(stages, cold);
  EXPECT_FALSE(builds(file("s27.bench", 1, scheme_cpf_basic(1))))
      << "an identical configuration must hit";
  EXPECT_TRUE(stages.empty()) << "a warm prepare() must build nothing";
  EXPECT_TRUE(builds(file("s27.bench", 1, scheme_stuck_at_external(1))))
      << "scheme";
  EXPECT_EQ(stages, cold);
  EXPECT_TRUE(builds(file("s27.bench", 2, scheme_cpf_basic(1))))
      << "chain count";
  EXPECT_TRUE(builds(file("s344c.bench", 1, scheme_cpf_basic(1))))
      << "design file";

  // In-memory designs key on content: an equal copy hits; other adopted
  // chains over the same netlist, or the same chains over a netlist with
  // one gate changed, miss.
  Netlist nl =
      read_bench_file(std::string(OCC_CIRCUITS_DIR) + "/s27.bench");
  const ScanChains chains = insert_scan(nl, {.num_chains = 2});
  const auto memory = [](const Netlist& n, const ScanChains& ch) {
    SessionConfig cfg;
    cfg.design(n).chains(ch).scheme(scheme_cpf_basic(1));
    return cfg;
  };
  EXPECT_TRUE(builds(memory(nl, chains)));
  EXPECT_EQ(stages, (std::vector<std::string>{"build", "compile"}));
  EXPECT_FALSE(builds(memory(nl, chains)))
      << "an equal netlist must hit";
  EXPECT_TRUE(stages.empty()) << "a warm prepare() must build nothing";
  ScanChains reordered = chains;
  ASSERT_EQ(reordered.chains.size(), 2u);
  std::reverse(reordered.chains.begin(), reordered.chains.end());
  EXPECT_TRUE(builds(memory(nl, reordered))) << "adopted chains";
  Netlist changed = nl;
  const auto gate = std::find_if(
      changed.topo_order().begin(), changed.topo_order().end(),
      [&](GateId g) { return changed.gate(g).type == GateType::kAnd; });
  ASSERT_NE(gate, changed.topo_order().end());
  changed.mutable_gate(*gate).type = GateType::kOr;
  changed.finalize();
  EXPECT_TRUE(builds(memory(changed, chains))) << "netlist content";

  const DesignCache::Stats st = cache->stats();
  EXPECT_EQ(st.misses, 7u);
  EXPECT_EQ(st.hits, 2u);
}

// ---- key composition ----------------------------------------------------

TEST(CompiledDesign, ContentKeySeparatesSchemesAndDesigns) {
  const Netlist soc = gen::generate_soc(soc_params());
  EXPECT_NE(scheme_fingerprint(scheme_cpf_basic(soc.num_domains())),
            scheme_fingerprint(scheme_cpf_enhanced(soc.num_domains(), 4)));

  // The fingerprint reads cycle structure, not just the name: adding a
  // capture cycle to an otherwise identical scheme must change it.
  ClockingScheme s1 = scheme_cpf_basic(soc.num_domains());
  ClockingScheme s2 = s1;
  s2.procedures[0].cycles.push_back(s2.procedures[0].cycles.back());
  EXPECT_NE(scheme_fingerprint(s1), scheme_fingerprint(s2));
}

}  // namespace
}  // namespace occ
