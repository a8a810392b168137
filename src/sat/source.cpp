#include "sat/source.h"

#include <memory>
#include <vector>

#include "api/compiled_design.h"
#include "atpg/parallel.h"
#include "fsim/pattern.h"
#include "sat/incremental.h"
#include "util/check.h"

namespace occ {
namespace sat {

void SatPatternSource::generate(PipelineContext& ctx) {
  FaultList& fl = ctx.faults;
  const ClockingScheme& scheme = ctx.scheme;
  const size_t num_ncp = scheme.procedures.size();
  SatStats& st = ctx.res.sat;

  // One incremental miter per capture procedure, built lazily and
  // shared across all targets: each fault instance is lowered once
  // under an activation literal, and everything the solver learns
  // deciding one fault carries over to every later fault in the model.
  // With a compiled design the models (and the good-machine CNF the
  // miter seeds from) are the session's frozen shared artifacts; the
  // clause stream is byte-identical either way, so verdicts and solver
  // counters match bit for bit. Solver state stays per-run.
  std::vector<const UnrolledModel*> models(num_ncp, nullptr);
  std::vector<std::unique_ptr<UnrolledModel>> owned_models(num_ncp);
  std::vector<std::unique_ptr<IncrementalMiter>> miters(num_ncp);

  // The target list is fixed up front; a flush may still drop a later
  // target (aborted faults stay fault-simulated), hence the re-check.
  std::vector<size_t> targets;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.status(i) == FaultStatus::kAborted) targets.push_back(i);
  }

  size_t done = 0;
  for (size_t fi : targets) {
    ++done;
    if (fl.status(fi) != FaultStatus::kAborted) continue;
    ++st.faults_targeted;
    bool budget_out = false;
    bool found = false;
    for (uint32_t nc = 0; nc < num_ncp && !found; ++nc) {
      if (!models[nc]) {
        if (ctx.compiled != nullptr) {
          models[nc] = &ctx.compiled->unrolled(nc);
          miters[nc] = std::make_unique<IncrementalMiter>(
              ctx.compiled->cnf_base(nc), SolverOptions{});
        } else {
          owned_models[nc] = std::make_unique<UnrolledModel>(ctx.nl, scheme,
                                                             nc, ctx.scan_en);
          models[nc] = owned_models[nc].get();
          miters[nc] = std::make_unique<IncrementalMiter>(*models[nc],
                                                          SolverOptions{});
        }
      }
      IncrementalMiter& miter = *miters[nc];
      const std::vector<UnrolledFault> ufs = models[nc]->translate(fl.fault(fi));
      for (size_t ti = 0; ti < ufs.size(); ++ti) {
        OCC_DCHECK(ti < 256);
        const uint64_t key = (static_cast<uint64_t>(fi) << 8) | ti;
        std::vector<V3> cube;
        const IncrementalMiter::Verdict v =
            miter.decide(key, ufs[ti], ctx.engine.sat_conflict_budget, &cube);
        if (v == IncrementalMiter::Verdict::kSat) {
          TestPattern p = cube_to_pattern(*models[nc], cube, ctx.nl, nc);
          // The model is a full detecting assignment; the flush below
          // re-derives the detection and drops collateral faults.
          fl.set_status(fi, FaultStatus::kDetected);
          ++st.detected;
          if (ctx.opts.keep_cubes) ctx.res.cubes.add(p);
          Rng fill_rng = ctx.rng.split(fi);
          p.random_fill(scheme.procedures[nc], fill_rng);
          PatternSet one(scheme.name);
          one.add(std::move(p));
          ctx.res.fsim += ctx.fsim.detect_faults(one, 0, 1, fl);
          ctx.res.patterns.add(one[0]);
          ++st.patterns;
          found = true;
          break;
        }
        if (v == IncrementalMiter::Verdict::kUnknown) budget_out = true;
        // kUnsat / kNoObservation: instance undetectable, keep going.
      }
    }
    if (!found) {
      if (budget_out) {
        ++st.still_aborted;  // stays kAborted
      } else {
        fl.set_status(fi, FaultStatus::kProvenUntestable);
        ++st.proven_untestable;
      }
    }
    ctx.progress(name(), done, targets.size());
  }

  // Fold this stage's solver work into the session counters. The stage
  // is sequential in fault-index order, so everything here is
  // deterministic across repeats and shard settings.
  for (const auto& m : miters) {
    if (!m) continue;
    const SolverStats& ss = m->solver().stats();
    st.solves += ss.solves;
    st.conflicts += ss.conflicts;
    st.decisions += ss.decisions;
    st.propagations += ss.propagations;
    st.assumption_solves += ss.assumption_solves;
    st.learned_reused += ss.learned_reused;
    st.learned_kept += m->solver().learned_kept();
    st.relowered_faults += m->relowered_faults();
  }
}

}  // namespace sat
}  // namespace occ
