// Tests: occ::CompiledDesign + occ::DesignCache -- the bit-identity
// contract (a run over a cached artifact reproduces a fresh run's
// patterns, fault statuses and deterministic work counters exactly, for
// every scheme, ATPG engine mode and shard count), concurrent sessions over
// one shared cache (run under TSan in CI), LRU eviction determinism,
// and the cache observability counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_design.h"
#include "api/session.h"
#include "core/clock_scheme.h"
#include "gen/socgen.h"
#include "netlist/hash.h"
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
  o.abort_retry_factor = 1;
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
  cfg.design([] { return gen::generate_soc(soc_params()); })
      .scan({.num_chains = 2})
      .scheme(spec.scheme)
      .atpg(cheap_atpg())
      .on_chip_clocking(spec.on_chip)
      .engine(engine);
  if (cache != nullptr) {
    cfg.design_cache(cache).design_key("soc5");
  }
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
  EXPECT_EQ(st.base_misses, 1u);       // design built + scanned once
  EXPECT_EQ(st.base_hits, 2 * specs.size() - 1);
  EXPECT_EQ(st.evictions, 0u);  // unlimited budget
  EXPECT_GT(st.resident_bytes, 0u);
}

// ---- bit-identity across engine modes and shard counts ------------------

TEST(CompiledDesign, CachedVsFreshBitIdentityAcrossModesAndShards) {
  const SchemeSpec spec{"cpf_basic", true,
                        scheme_cpf_basic(soc_params().domains)};
  // The ATPG engine modes: the abort ladder without (the default) and
  // with the SAT backend's final pass.
  for (const bool sat_backend : {false, true}) {
    SCOPED_TRACE("sat_backend " + std::to_string(sat_backend));
    const auto config = [&](const std::shared_ptr<DesignCache>& cache,
                            size_t shards) {
      return make_config(spec, cache,
                         {.fsim = {.shards = shards},
                          .sat_backend = sat_backend});
    };
    // One cache per mode, shared across the shard sweep: shard count
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

// ---- SAT backend over cached CNF bases ----------------------------------

TEST(CompiledDesign, CachedVsFreshBitIdentityWithSatBackend) {
  // Starved PODEM so the SAT probes see a real abort pool; the cached
  // run replays solver work from the frozen CNF base via the
  // IncrementalMiter copy constructor -- conflicts/solves must match a
  // fresh lowering exactly.
  AtpgOptions starved;
  starved.backtrack_limit = 10;
  starved.abort_retry_factor = 1;
  const SchemeSpec spec{"cpf_basic", true,
                        scheme_cpf_basic(soc_params().domains)};
  const auto cache = std::make_shared<DesignCache>();
  auto run_one = [&](const std::shared_ptr<DesignCache>& c) {
    SessionConfig cfg = make_config(spec, c, {.sat_backend = true});
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
  EXPECT_EQ(cd->design_hash(), netlist_content_hash(cd->netlist()));
  EXPECT_FALSE(cd->key().empty());

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
  SessionConfig cfg;
  cfg.compiled(cd).design([] { return gen::generate_soc(soc_params()); });
  EXPECT_THROW(Session(std::move(cfg)).run(), CheckError);
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
  // In-flight build dedup: exactly one thread builds per level, the
  // rest block on the shared future and then share the frozen artifact.
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, kThreads - 1);
  EXPECT_EQ(st.base_misses, 1u);
  EXPECT_EQ(st.base_hits, kThreads - 1);
}

// ---- LRU eviction -------------------------------------------------------

/// Builds + freezes one scheme's artifact through the cache, the way
/// Session::prepare() does, without the (slow) ATPG stage behind it.
std::shared_ptr<const CompiledDesign> cache_one(
    DesignCache& cache, const std::shared_ptr<const Netlist>& nl,
    const ScanChains& chains, const ClockingScheme& scheme) {
  const std::string key = compiled_design_key(
      netlist_content_hash(*nl), chains_fingerprint(chains),
      chains.scan_en, scheme_fingerprint(scheme));
  return cache.get_or_build(key, [&] {
    auto cd = CompiledDesign::build(nl, chains, /*has_scan_chains=*/true,
                                    chains.scan_en, scheme);
    cd->freeze();
    return cd;
  });
}

/// Requests the five schemes in order through a budget-bound cache and
/// returns the final stats (for the determinism comparison below).
DesignCache::Stats run_scheme_sequence(
    size_t byte_budget, const std::shared_ptr<const Netlist>& nl,
    const ScanChains& chains) {
  DesignCache cache(byte_budget);
  for (const SchemeSpec& spec : five_schemes(soc_params().domains)) {
    (void)cache_one(cache, nl, chains, spec.scheme);
  }
  return cache.stats();
}

TEST(CompiledDesign, LruEvictionIsDeterministicAndRebuilds) {
  auto nl = std::make_shared<Netlist>(gen::generate_soc(soc_params()));
  const ScanChains chains = insert_scan(*nl, {.num_chains = 2});
  const std::shared_ptr<const Netlist> design = std::move(nl);

  // Unlimited budget first, to learn the artifact footprint.
  const DesignCache::Stats unlimited =
      run_scheme_sequence(0, design, chains);
  ASSERT_EQ(unlimited.evictions, 0u);
  ASSERT_GT(unlimited.resident_bytes, 0u);

  // A budget below the five-scheme footprint forces evictions; the
  // sequence is fixed, so the eviction order (strict LRU over ready
  // entries) and every counter must reproduce exactly across runs.
  const size_t budget = unlimited.resident_bytes / 2;
  const DesignCache::Stats a = run_scheme_sequence(budget, design, chains);
  const DesignCache::Stats b = run_scheme_sequence(budget, design, chains);
  EXPECT_GT(a.evictions, 0u);
  EXPECT_LT(a.resident_bytes, unlimited.resident_bytes);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);

  // An evicted entry rebuilds on re-request: same key, same content
  // (deterministic construction), counted as a fresh miss.
  DesignCache cache(budget);
  const auto specs = five_schemes(soc_params().domains);
  const auto first = cache_one(cache, design, chains, specs[0].scheme);
  const size_t first_bytes = first->approx_bytes();
  for (size_t i = 1; i < specs.size(); ++i) {
    (void)cache_one(cache, design, chains, specs[i].scheme);
  }
  ASSERT_GT(cache.stats().evictions, 0u);
  const uint64_t misses_before = cache.stats().misses;
  const auto again = cache_one(cache, design, chains, specs[0].scheme);
  EXPECT_EQ(cache.stats().misses, misses_before + 1)
      << "evicted entry must rebuild, not hit";
  EXPECT_NE(again.get(), first.get());
  EXPECT_EQ(again->key(), first->key());
  EXPECT_EQ(again->design_hash(), first->design_hash());
  EXPECT_EQ(again->approx_bytes(), first_bytes);
}

// ---- key composition ----------------------------------------------------

TEST(CompiledDesign, ContentKeySeparatesSchemesAndDesigns) {
  const Netlist soc = gen::generate_soc(soc_params());
  const uint64_t h = netlist_content_hash(soc);
  const uint64_t fp_basic =
      scheme_fingerprint(scheme_cpf_basic(soc.num_domains()));
  const uint64_t fp_enh =
      scheme_fingerprint(scheme_cpf_enhanced(soc.num_domains(), 4));
  EXPECT_NE(fp_basic, fp_enh);
  EXPECT_NE(compiled_design_key(h, 1, 2, fp_basic),
            compiled_design_key(h, 1, 2, fp_enh));
  EXPECT_NE(compiled_design_key(h, 1, 2, fp_basic),
            compiled_design_key(h + 1, 1, 2, fp_basic));
  EXPECT_NE(compiled_design_key(h, 1, 2, fp_basic),
            compiled_design_key(h, 3, 2, fp_basic));

  // The fingerprint reads cycle structure, not just the name: adding a
  // capture cycle to an otherwise identical scheme must change it.
  ClockingScheme s1 = scheme_cpf_basic(soc.num_domains());
  ClockingScheme s2 = s1;
  s2.procedures[0].cycles.push_back(s2.procedures[0].cycles.back());
  EXPECT_NE(scheme_fingerprint(s1), scheme_fingerprint(s2));
}

}  // namespace
}  // namespace occ
