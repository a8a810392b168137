#include "atpg/parallel.h"

#include <algorithm>
#include <utility>

#include "api/compiled_design.h"
#include "api/session.h"
#include "util/check.h"

namespace occ {
namespace {

/// Open (unfilled) cubes per capture procedure that trigger a fill +
/// fault-simulation flush of that procedure's window.
constexpr size_t kMergeWindow = 64;

/// Faults handed to one pool dispatch, per shard. Windows big enough to
/// amortize the fork-join handshake over real PODEM work, small enough
/// that a mid-window flush rarely invalidates much speculation (the
/// flush cadence is kMergeWindow cubes per procedure).
constexpr size_t kWindowFaultsPerShard = 16;

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
  miters_.resize(num_ncps);
  if (shards_ > 1) pool_ = std::make_unique<ThreadPool>(shards_);
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

sat::IncrementalMiter* ParallelPodem::miter_for(uint32_t nc) {
  if (!miters_[nc]) {
    // Seeded from the artifact's frozen good-machine lowering (copied;
    // the clause stream is byte-identical to lowering here).
    miters_[nc] = std::make_unique<sat::IncrementalMiter>(
        ctx_.compiled.cnf_base(nc), sat::SolverOptions{});
  }
  return miters_[nc].get();
}

void ParallelPodem::walk(ShardScratch& sc, size_t fi,
                         const CubeCacheEntry* seed, bool leader,
                         Attempt* out) {
  Attempt& a = *out;
  const Fault& f = ctx_.faults.fault(fi);
  const Podem::Stats before = stats_sum(sc);
  // Resuming a worker's walk: its cheap PODEM run of the instance at
  // (esc_nc, esc_target) already aborted.
  const bool resuming = a.pending;
  OCC_DCHECK(leader || !resuming);
  a.pending = false;

  const auto take = [&](const UnrolledModel& model, uint32_t nc,
                        std::vector<V3> cube) {
    a.cube = cube_to_pattern(model, cube, ctx_.nl, nc);
    a.var_cube = std::move(cube);
    a.ncp = nc;
    a.detected = true;
  };

  const size_t num_ncps = ctx_.scheme.procedures.size();
  for (uint32_t nc = resuming ? a.esc_nc : 0; nc < num_ncps && !a.detected;
       ++nc) {
    const bool resume_nc = resuming && nc == a.esc_nc;
    // Capability pre-filter: the fault's effects must be capturable.
    if (!resume_nc && !capable(fi, nc)) continue;
    const UnrolledModel& model = ctx_.compiled.unrolled(nc);
    Podem* podem = podem_for(sc, nc);
    // A sibling's cube only seeds the matching capture procedure (var
    // spaces differ across procedures).
    const std::vector<V3>* seed_cube =
        seed != nullptr && seed->ncp == nc ? &seed->var_cube : nullptr;
    const std::vector<UnrolledFault> targets = model.translate(f);
    for (size_t ti = resume_nc ? a.esc_target : 0; ti < targets.size();
         ++ti) {
      const UnrolledFault& uf = targets[ti];
      if (!(resume_nc && ti == a.esc_target)) {
        const Podem::Outcome outc = podem->run(uf, seed_cube);
        if (outc == Podem::Outcome::kDetected) {
          take(model, nc, podem->assignment());
          break;
        }
        if (outc != Podem::Outcome::kAborted) continue;
        if (!leader) {
          // Stop here: the SAT probe depends on the history-carrying
          // incremental solver and must run on the leader at canonical
          // commit order.
          a.pending = true;
          a.esc_nc = nc;
          a.esc_target = ti;
          a.stats += stats_sum(sc) - before;
          return;
        }
      }

      // The last rung: one incremental-SAT probe of the aborted
      // instance at the session's conflict budget.
      ++ctx_.res.escalations;
      std::vector<V3> cube;
      const sat::IncrementalMiter::Verdict v = miter_for(nc)->decide(
          uf, ctx_.engine.sat_conflict_budget, &cube);
      if (v == sat::IncrementalMiter::Verdict::kUnknown) {
        a.aborted = true;
        continue;
      }
      ++ctx_.res.sat_probe_wins;
      if (v == sat::IncrementalMiter::Verdict::kSat) {
        take(model, nc, std::move(cube));
        break;
      }
      // kUnsat/kNoObservation: the instance is proven undetectable.
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
    // The fault was dropped by a flush committed after the window was
    // built; the sequential loop would have skipped it entirely, so its
    // speculative work must stay out of every committed counter.
    ctx_.res.speculative_runs += att.stats.runs;
    ctx_.res.discarded_cubes += att.detected ? 1 : 0;
    return;
  }
  // A stopped walk resumes here -- after the eligibility re-check, in
  // canonical fault order -- so the incremental solver sees the same
  // probe sequence for every shard count.
  if (att.pending) walk(scratch_[0], fi, seed_for(fi).get(), true, &att);
  if (att.detected) {
    merge_cube(att.ncp, std::move(att.cube));
    // The generated cube provably detects fi even before fsim.
    fl.set_status(fi, FaultStatus::kDetected);
    cube_cache_[fl.fault(fi).gate] = std::make_shared<CubeCacheEntry>(
        CubeCacheEntry{att.ncp, std::move(att.var_cube)});
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
}

void ParallelPodem::run_sequential() {
  FaultList& fl = ctx_.faults;
  const size_t total = fl.size();
  for (size_t fi = 0; fi < total; ++fi) {
    if ((fi & 0x3ff) == 0) ctx_.progress(stage_, fi, total);
    if (!eligible(fl.status(fi))) continue;
    Attempt att;
    walk(scratch_[0], fi, seed_for(fi).get(), true, &att);
    commit_fault(fi, att);
  }
}

ParallelPodem::CubeCacheRef ParallelPodem::seed_for(size_t fi) const {
  if (cube_cache_.empty()) return nullptr;  // no hits yet
  const auto it = cube_cache_.find(ctx_.faults.fault(fi).gate);
  return it == cube_cache_.end() ? nullptr : it->second;
}

void ParallelPodem::run_speculative() {
  FaultList& fl = ctx_.faults;
  const size_t total = fl.size();
  const size_t window = shards_ * kWindowFaultsPerShard;
  std::vector<size_t> cand;
  cand.reserve(window);
  std::vector<CubeCacheRef> seeds;
  std::vector<Attempt> attempts;
  size_t next = 0;
  while (next < total) {
    // Leader: collect the next window of still-eligible faults. A fault
    // ineligible here can never become eligible again (statuses only
    // move toward detected/untestable/aborted), so skipping now is
    // exactly the sequential skip. Each candidate's cube-cache entry is
    // snapshotted here; a commit inside this window can move it, which
    // the commit loop detects and repairs (see below).
    const size_t win_start = next;
    cand.clear();
    seeds.clear();
    while (next < total && cand.size() < window) {
      if (eligible(fl.status(next))) {
        cand.push_back(next);
        seeds.push_back(seed_for(next));
      }
      ++next;
    }
    const size_t win_end = next;

    // Workers: speculative PODEM attempts, interleaved over the shards.
    // Shards touch only their own scratch and their disjoint slots of
    // `attempts`; the fault list and the seed snapshot are read-only
    // here (set_status and cache updates happen only on the leader,
    // between dispatches).
    attempts.assign(cand.size(), Attempt{});
    if (!cand.empty()) {
      pool_->run([&](size_t s) {
        for (size_t k = s; k < cand.size(); k += shards_) {
          walk(scratch_[s], cand[k], seeds[k].get(), false, &attempts[k]);
        }
      });
    }

    // Leader: commit in canonical fault order, emitting the same
    // progress events the sequential walk does. If an earlier commit of
    // this window refreshed the candidate's cube-cache entry, the
    // worker ran with a stale seed: discard its attempt (counted as
    // wasted speculation) and re-run on the leader with the canonical
    // entry, exactly as the sequential loop would have.
    size_t k = 0;
    for (size_t fi = win_start; fi < win_end; ++fi) {
      if ((fi & 0x3ff) == 0) ctx_.progress(stage_, fi, total);
      if (k >= cand.size() || cand[k] != fi) continue;
      Attempt& att = attempts[k];
      const CubeCacheRef canonical =
          eligible(fl.status(fi)) ? seed_for(fi) : seeds[k];
      if (canonical != seeds[k]) {
        ctx_.res.speculative_runs += att.stats.runs;
        ctx_.res.discarded_cubes += att.detected ? 1 : 0;
        att = Attempt{};
        walk(scratch_[0], fi, canonical.get(), true, &att);
      }
      commit_fault(fi, att);
      ++k;
    }
  }
}

void ParallelPodem::run() {
  if (shards_ == 1) {
    run_sequential();
  } else {
    run_speculative();
  }
  for (uint32_t nc = 0; nc < open_cubes_.size(); ++nc) flush(nc);
  // Fold the miters' solver work into the session's SAT counters. Every
  // solve runs leader-side in canonical fault order, so these are
  // deterministic across repeats and shard counts.
  for (const auto& m : miters_) {
    if (!m) continue;
    const sat::SolverStats& st = m->solver().stats();
    SatStats& agg = ctx_.res.sat;
    agg.solves += st.solves;
    agg.conflicts += st.conflicts;
    agg.decisions += st.decisions;
    agg.propagations += st.propagations;
    agg.assumption_solves += st.assumption_solves;
    agg.learned_reused += st.learned_reused;
    agg.learned_kept += m->solver().learned_kept();
  }
  ctx_.progress(stage_, ctx_.faults.size(), ctx_.faults.size());
}

}  // namespace occ
