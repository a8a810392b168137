#include "atpg/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "api/compiled_design.h"
#include "api/session.h"
#include "util/check.h"

namespace occ {
namespace {

/// Open (unfilled) cubes per capture procedure that trigger a fill +
/// fault-simulation flush of that procedure's window.
constexpr size_t kMergeWindow = 64;

/// Ring slots per walker: how far the committer fills ahead of its
/// commit point. Deep enough that the walkers keep busy behind one slow
/// walk (a cube-giving SAT probe costs as much as 10-20 average walks),
/// shallow enough that a flush rarely drops a fault already walked (the
/// flush cadence is kMergeWindow cubes per procedure).
constexpr size_t kLookaheadFaultsPerShard = 32;

}  // namespace

TestPattern cube_to_pattern(const UnrolledModel& um,
                            const std::vector<V3>& cube, const Netlist& nl,
                            uint32_t ncp_index) {
  const NamedCaptureProcedure& ncp = um.ncp();
  TestPattern p;
  p.ncp_index = ncp_index;
  p.pi_frames.assign(ncp.cycles.size(),
                     std::vector<V3>(nl.inputs().size(), V3::kX));
  p.load.assign(scan_cells(nl).size(), V3::kX);
  const auto& info = um.var_info();
  for (size_t v = 0; v < info.size(); ++v) {
    if (cube[v] == V3::kX) continue;
    if (info[v].kind == UnrolledModel::VarInfo::kLoad) {
      p.load[info[v].pos] = cube[v];
    } else {
      p.pi_frames[info[v].frame][info[v].pos] = cube[v];
    }
  }
  // Copy PI values forward into frozen frames so the pattern is
  // self-consistent (variables are shared; values must repeat).
  for (size_t f = 1; f < p.pi_frames.size(); ++f) {
    if (!ncp.cycles[f].pi_change) p.pi_frames[f] = p.pi_frames[f - 1];
  }
  return p;
}

namespace {

bool cubes_compatible(const TestPattern& a, const TestPattern& b) {
  for (size_t f = 0; f < a.pi_frames.size(); ++f) {
    for (size_t i = 0; i < a.pi_frames[f].size(); ++i) {
      const V3 x = a.pi_frames[f][i], y = b.pi_frames[f][i];
      if (x != V3::kX && y != V3::kX && x != y) return false;
    }
  }
  for (size_t i = 0; i < a.load.size(); ++i) {
    if (a.load[i] != V3::kX && b.load[i] != V3::kX &&
        a.load[i] != b.load[i]) {
      return false;
    }
  }
  return true;
}

void merge_into(TestPattern& dst, const TestPattern& src) {
  for (size_t f = 0; f < dst.pi_frames.size(); ++f) {
    for (size_t i = 0; i < dst.pi_frames[f].size(); ++i) {
      if (src.pi_frames[f][i] != V3::kX) {
        dst.pi_frames[f][i] = src.pi_frames[f][i];
      }
    }
  }
  for (size_t i = 0; i < dst.load.size(); ++i) {
    if (src.load[i] != V3::kX) dst.load[i] = src.load[i];
  }
}

}  // namespace

ParallelPodem::ParallelPodem(PipelineContext& ctx, size_t shards,
                             std::string stage)
    : ctx_(ctx), shards_(std::max<size_t>(shards, 1)),
      stage_(std::move(stage)) {
  const Netlist& nl = ctx_.nl;
  const ClockingScheme& scheme = ctx_.scheme;

  // Forward DP over the netlist: for every gate, the set of flop domains
  // its combinational fan-out cone feeds, and whether it reaches a PO.
  sink_domains_.assign(nl.size(), 0);
  sink_po_.assign(nl.size(), false);
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    for (GateId o : nl.gate(g).fanout) {
      const Gate& og = nl.gate(o);
      if (og.type == GateType::kDff) {
        sink_domains_[g] |= DomainMask{1} << og.domain;
      } else if (og.type == GateType::kOutput) {
        sink_po_[g] = true;
      } else {
        sink_domains_[g] |= sink_domains_[o];
        sink_po_[g] = sink_po_[g] || sink_po_[o];
      }
    }
  }

  // Capability masks per capture procedure: which domains it captures
  // (at-speed cycles only for transition faults) and whether any cycle
  // strobes the POs.
  const size_t num_ncps = scheme.procedures.size();
  capture_mask_.assign(num_ncps, 0);
  po_obs_.assign(num_ncps, false);
  for (size_t nc = 0; nc < num_ncps; ++nc) {
    const NamedCaptureProcedure& ncp = scheme.procedures[nc];
    for (const auto& c : ncp.cycles) po_obs_[nc] = po_obs_[nc] || c.po_strobe;
    if (scheme.model == FaultModel::kTransition) {
      for (size_t k = 1; k < ncp.cycles.size(); ++k) {
        if (ncp.cycles[k].at_speed) capture_mask_[nc] |= ncp.cycles[k].pulses;
      }
    } else {
      for (const auto& c : ncp.cycles) capture_mask_[nc] |= c.pulses;
    }
  }

  scratch_.resize(shards_);
  for (ShardScratch& sc : scratch_) sc.podems.resize(num_ncps);
  open_cubes_.resize(num_ncps);
  if (shards_ > 1) pool_ = std::make_unique<ThreadPool>(shards_ + 1);
}

ParallelPodem::~ParallelPodem() = default;

bool ParallelPodem::capable(size_t fi, uint32_t nc) const {
  const Fault& f = ctx_.faults.fault(fi);
  const Gate& g = ctx_.nl.gate(f.gate);
  // A fault on a flop's D pin is captured by that flop, and one on a
  // PO's pin is strobed there; every other fault leaves its gate
  // through the gate's output.
  if (f.pin != kOutputPin && g.type == GateType::kDff) {
    return (capture_mask_[nc] & (DomainMask{1} << g.domain)) != 0;
  }
  if (g.type == GateType::kOutput) return po_obs_[nc];
  return (sink_domains_[f.gate] & capture_mask_[nc]) != 0 ||
         (sink_po_[f.gate] && po_obs_[nc]);
}

Podem* ParallelPodem::podem_for(ShardScratch& sc, uint32_t nc) const {
  if (!sc.podems[nc]) {
    // The session's frozen model is read-only during the search, so all
    // shards share one copy (the first caller builds it under the
    // artifact's call_once).
    sc.podems[nc] = std::make_unique<Podem>(ctx_.compiled.unrolled(nc),
                                            ctx_.opts.backtrack_limit);
  }
  return sc.podems[nc].get();
}

Podem::Stats ParallelPodem::stats_sum(const ShardScratch& sc) const {
  Podem::Stats sum;
  for (const auto& p : sc.podems) {
    if (p) sum += p->stats();
  }
  return sum;
}

void ParallelPodem::walk(ShardScratch& sc, size_t fi, Attempt* out) const {
  Attempt& a = *out;
  const Fault& f = ctx_.faults.fault(fi);
  const Podem::Stats before = stats_sum(sc);
  const size_t num_ncps = ctx_.scheme.procedures.size();
  for (uint32_t nc = 0; nc < num_ncps && !a.detected; ++nc) {
    // Capability pre-filter: the fault's effects must be capturable.
    if (!capable(fi, nc)) continue;
    const UnrolledModel& model = ctx_.compiled.unrolled(nc);
    Podem* podem = podem_for(sc, nc);
    for (const UnrolledFault& uf : model.translate(f)) {
      const Podem::Outcome outc = podem->run(uf);
      if (outc == Podem::Outcome::kDetected) {
        a.cube = cube_to_pattern(model, podem->assignment(), ctx_.nl, nc);
        a.ncp = nc;
        a.detected = true;
        break;
      }
      if (outc != Podem::Outcome::kAborted) continue;

      // The last rung: one SAT probe of the aborted instance at the
      // session's conflict budget.
      ++a.escalations;
      const sat::ProbeResult pr = sat::probe(
          model, uf, ctx_.engine.sat_conflict_budget, &sc.probe);
      a.sat.solves += pr.work.solves;
      a.sat.conflicts += pr.work.conflicts;
      a.sat.decisions += pr.work.decisions;
      a.sat.propagations += pr.work.propagations;
      a.sat.learned_kept += pr.learned_kept;
      if (pr.verdict == sat::Verdict::kUnknown) {
        a.aborted = true;
        continue;
      }
      ++a.sat_probe_wins;
      if (pr.verdict == sat::Verdict::kSat) {
        a.cube = cube_to_pattern(model, pr.cube, ctx_.nl, nc);
        a.ncp = nc;
        a.detected = true;
        break;
      }
      // kUnsat/kNoObservation: the instance is proven undetectable.
      ++a.sat_refutations;
      a.sat_settled = true;
    }
  }
  a.stats += stats_sum(sc) - before;
}

void ParallelPodem::flush(uint32_t nc) {
  auto& q = open_cubes_[nc];
  if (q.empty()) return;
  const ClockingScheme& scheme = ctx_.scheme;
  PatternSet batch_set(scheme.name);
  for (TestPattern& p : q) {
    if (ctx_.opts.keep_cubes) ctx_.res.cubes.add(p);
    p.random_fill(scheme.procedures[nc], ctx_.rng);
    batch_set.add(p);
  }
  // One window call; the engine packs the ceil(n/64) lane sweeps.
  ctx_.res.fsim +=
      ctx_.fsim.detect_faults(batch_set, 0, batch_set.size(), ctx_.faults);
  for (const TestPattern& p : batch_set) {
    ctx_.res.patterns.add(p);
    ++ctx_.res.deterministic_patterns;
  }
  q.clear();
}

void ParallelPodem::merge_cube(uint32_t nc, TestPattern cube) {
  // Static merge: extra known bits cannot un-detect a cube's target
  // (3-valued implication is monotone), so compatible cubes share one
  // pattern -- the dynamic-compaction effect behind realistic
  // stuck-at/transition pattern-count ratios.
  if (ctx_.opts.merge_cubes) {
    for (auto it = open_cubes_[nc].rbegin(); it != open_cubes_[nc].rend();
         ++it) {
      if (cubes_compatible(*it, cube)) {
        merge_into(*it, cube);
        return;
      }
    }
  }
  open_cubes_[nc].push_back(std::move(cube));
  if (open_cubes_[nc].size() >= kMergeWindow) flush(nc);
}

void ParallelPodem::commit_fault(size_t fi, Attempt& att) {
  FaultList& fl = ctx_.faults;
  if (!eligible(fl.status(fi))) {
    // The fault was dropped by a flush committed after its ring slot
    // was filled; the sequential loop would have skipped it entirely, so
    // its speculative work must stay out of every committed counter.
    ctx_.res.speculative_runs += att.stats.runs;
    ctx_.res.discarded_cubes += att.detected ? 1 : 0;
    return;
  }
  if (att.detected) {
    merge_cube(att.ncp, std::move(att.cube));
    // The generated cube provably detects fi even before fsim.
    fl.set_status(fi, FaultStatus::kDetected);
  } else if (att.aborted) {
    fl.set_status(fi, FaultStatus::kAborted);
  } else if (att.sat_settled) {
    // No abort and no detection left, and at least one instance was
    // settled by a SAT refutation: the undetectability is a proof, not
    // a search exhaustion.
    fl.set_status(fi, FaultStatus::kProvenUntestable);
  } else {
    // Untestable under every applicable capture procedure (or no
    // procedure can observe it at all).
    fl.set_status(fi, FaultStatus::kUntestable);
  }
  ctx_.res.podem += att.stats;
  ctx_.res.escalations += att.escalations;
  ctx_.res.sat_probe_wins += att.sat_probe_wins;
  ctx_.res.sat_refutations += att.sat_refutations;
  ctx_.res.sat += att.sat;
}

/// The bounded hand-off between the committer and the walkers. Stream
/// position k (the k-th fault the committer filled) lives in
/// slot(k); the committer fills positions ahead of its commit point,
/// walkers claim them in stream order from `cursor`, and the committer
/// commits them in the same order.
struct ParallelPodem::Ring {
  struct Slot {
    size_t fi = 0;             // the fault to walk
    Attempt att;               // the walk's outcome
    std::exception_ptr error;  // what the walk threw, if anything
    // 1 + the stream position whose walk was last published here; its
    // release store publishes att and error.
    std::atomic<size_t> walked{0};
  };

  explicit Ring(size_t capacity) : slots(capacity) {}
  Slot& slot(size_t k) { return slots[k % slots.size()]; }

  std::vector<Slot> slots;
  std::atomic<size_t> cursor{0};  // next stream position a walker claims
  std::atomic<size_t> filled{0};  // stream positions the committer filled
  std::atomic<bool> closed{false};
  // For sleeping only: whatever a sleeper waits for (`filled` moving,
  // `closed`, a slot's `walked`) is stored under mu, so a predicate
  // checked under it cannot miss a wake-up.
  std::mutex mu;
  std::condition_variable walker_cv;     // `filled` moved or ring closed
  std::condition_variable committer_cv;  // the awaited slot was walked
  size_t awaited = 0;  // position the committer sleeps on (guarded by mu)
};

void ParallelPodem::walk_stream(Ring& ring, ShardScratch& sc) const {
  for (;;) {
    // Claims are in stream order, so a walker that runs ahead of the
    // fill waits for exactly its own position.
    const size_t k = ring.cursor.fetch_add(1, std::memory_order_relaxed);
    if (k >= ring.filled.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(ring.mu);
      ring.walker_cv.wait(lock, [&] {
        return ring.closed.load(std::memory_order_relaxed) ||
               k < ring.filled.load(std::memory_order_relaxed);
      });
    }
    if (ring.closed.load(std::memory_order_acquire)) return;
    Ring::Slot& slot = ring.slot(k);
    try {
      walk(sc, slot.fi, &slot.att);
    } catch (...) {
      // The committer rethrows it when it reaches this slot.
      slot.error = std::current_exception();
    }
    bool wake;
    {
      std::lock_guard<std::mutex> lock(ring.mu);
      slot.walked.store(k + 1, std::memory_order_release);
      wake = ring.awaited == k;
    }
    // Only the slot the committer sleeps on wakes it.
    if (wake) ring.committer_cv.notify_one();
  }
}

void ParallelPodem::commit_stream(Ring& ring) {
  // Closing wakes every walker waiting for a fill. It must run on every
  // exit path, a throwing observer or flush included: the pool's run()
  // waits for all walkers before it rethrows.
  struct CloseOnExit {
    Ring& ring;
    ~CloseOnExit() {
      {
        std::lock_guard<std::mutex> lock(ring.mu);
        ring.closed.store(true, std::memory_order_release);
      }
      ring.walker_cv.notify_all();
    }
  } close_on_exit{ring};

  FaultList& fl = ctx_.faults;
  const size_t total = fl.size();
  size_t scan = 0;       // next fault index the fill looks at
  size_t filled = 0;     // stream positions filled
  size_t committed = 0;  // stream positions committed
  for (size_t fi = 0; fi < total; ++fi) {
    // Keep the ring full. A fault ineligible at fill time can never
    // become eligible again (statuses only move toward detected/
    // untestable/aborted), so skipping it here is the sequential skip.
    const size_t before = filled;
    while (scan < total && filled - committed < ring.slots.size()) {
      if (eligible(fl.status(scan))) {
        Ring::Slot& slot = ring.slot(filled++);
        slot.fi = scan;
        slot.att = Attempt{};
        slot.error = nullptr;
      }
      ++scan;
    }
    if (pool_ && filled != before) {
      {
        std::lock_guard<std::mutex> lock(ring.mu);
        ring.filled.store(filled, std::memory_order_release);
      }
      ring.walker_cv.notify_all();
    }

    if ((fi & 0x3ff) == 0) ctx_.progress(stage_, fi, total);
    if (committed == filled || ring.slot(committed).fi != fi) continue;
    Ring::Slot& slot = ring.slot(committed);
    if (!pool_) {
      // No walkers: re-check eligibility and walk here, which is the
      // sequential schedule (nothing is ever walked speculatively).
      if (eligible(fl.status(fi))) walk(scratch_[0], fi, &slot.att);
    } else if (slot.walked.load(std::memory_order_acquire) != committed + 1) {
      std::unique_lock<std::mutex> lock(ring.mu);
      ring.awaited = committed;
      ring.committer_cv.wait(lock, [&] {
        return slot.walked.load(std::memory_order_relaxed) == committed + 1;
      });
    }
    if (slot.error) std::rethrow_exception(slot.error);
    commit_fault(fi, slot.att);
    ++committed;
  }
}

void ParallelPodem::run() {
  Ring ring(kLookaheadFaultsPerShard * shards_);
  if (pool_) {
    pool_->run([&](size_t s) {
      if (s == 0) {
        commit_stream(ring);
      } else {
        walk_stream(ring, scratch_[s - 1]);
      }
    });
  } else {
    commit_stream(ring);
  }
  for (uint32_t nc = 0; nc < open_cubes_.size(); ++nc) flush(nc);
  ctx_.progress(stage_, ctx_.faults.size(), ctx_.faults.size());
}

}  // namespace occ
