#include "api/stages.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "api/session.h"
#include "atpg/parallel.h"
#include "dft/ate_export.h"
#include "util/check.h"

namespace occ {
namespace {

/// A random round detecting fewer new faults than this ends the random
/// stage for its capture procedure.
constexpr size_t kRandomMinYield = 2;

TestPattern empty_pattern(const Netlist& nl,
                          const NamedCaptureProcedure& ncp,
                          uint32_t ncp_index) {
  TestPattern p;
  p.ncp_index = ncp_index;
  p.pi_frames.assign(ncp.cycles.size(),
                     std::vector<V3>(nl.inputs().size(), V3::kX));
  p.load.assign(scan_cells(nl).size(), V3::kX);
  return p;
}

}  // namespace

// ---- RandomPatternSource -------------------------------------------------

void RandomPatternSource::generate(PipelineContext& ctx) {
  const size_t rounds = ctx.opts.random_rounds;
  const size_t num_ncps = ctx.scheme.procedures.size();

  for (uint32_t nc = 0; nc < num_ncps; ++nc) {
    const NamedCaptureProcedure& ncp = ctx.scheme.procedures[nc];
    for (size_t round = 0; round < rounds; ++round) {
      PatternSet cand(ctx.scheme.name);
      for (size_t i = 0; i < 64; ++i) {
        TestPattern p = empty_pattern(ctx.nl, ncp, nc);
        p.random_fill(ncp, ctx.rng);
        cand.add(std::move(p));
      }
      PatternBatch batch = pack_batch(cand, 0, 64, ctx.nl, ncp);
      std::vector<std::pair<size_t, unsigned>> dets;
      const FsimStats st = ctx.fsim.detect_faults(batch, ctx.faults, &dets);
      ctx.res.fsim += st;
      // Keep only first-detector patterns.
      std::vector<bool> keep(64, false);
      for (const auto& [fault, slot] : dets) keep[slot] = true;
      for (size_t i = 0; i < 64; ++i) {
        if (keep[i]) {
          ctx.res.patterns.add(cand[i]);
          ++ctx.res.random_patterns;
        }
      }
      ctx.progress(name(), round + 1, rounds);
      if (st.newly_detected < kRandomMinYield) break;
    }
  }
}

// ---- PodemPatternSource --------------------------------------------------

void PodemPatternSource::generate(PipelineContext& ctx) {
  // The whole stage -- one streaming speculative-commit loop for every
  // shard count -- lives in atpg/parallel.{h,cpp}; committed results
  // are bit-identical for every shard count.
  ParallelPodem(ctx,
                resolve_atpg_shards(ctx.engine.atpg_shards,
                                    ctx.fsim.shards()),
                name())
      .run();
}

// ---- ExternalCubeSource --------------------------------------------------

void ExternalCubeSource::generate(PipelineContext& ctx) {
  // Fill every cube from its own child RNG stream: the result does not
  // depend on how the cubes are later grouped into batches or shards.
  PatternSet filled(ctx.scheme.name);
  for (size_t i = 0; i < cubes_.size(); ++i) {
    TestPattern p = cubes_[i];
    OCC_CHECK(p.ncp_index < ctx.scheme.procedures.size(),
              "external cube ", i, " references NCP ", p.ncp_index,
              " but scheme '", ctx.scheme.name, "' has ",
              ctx.scheme.procedures.size(), " procedures");
    if (ctx.opts.keep_cubes) ctx.res.cubes.add(p);
    Rng fill_rng = ctx.rng.split(i);
    p.random_fill(ctx.scheme.procedures[p.ncp_index], fill_rng);
    filled.add(std::move(p));
  }
  // Grade NCP-contiguous runs through the engine's window entry point
  // (it owns the 64-lane sweep packing); runs only delimit progress.
  size_t first = 0;
  while (first < filled.size()) {
    const uint32_t nc = filled[first].ncp_index;
    size_t n = 1;
    while (first + n < filled.size() &&
           filled[first + n].ncp_index == nc) {
      ++n;
    }
    ctx.res.fsim += ctx.fsim.detect_faults(filled, first, n, ctx.faults);
    first += n;
    ctx.progress(name(), first, filled.size());
  }
  for (const TestPattern& p : filled) {
    ctx.res.patterns.add(p);
    ++ctx.res.external_patterns;
  }
}

// ---- sinks ---------------------------------------------------------------

void SummarySink::write(const SessionResult& result) {
  *os_ << result.summary();
}

void PatternTextSink::write(const SessionResult& result) {
  result.atpg.patterns.write_text(*os_);
}

void AteProgramSink::write(const SessionResult& result) {
  OCC_CHECK(result.has_scan_chains,
            "AteProgramSink requires a session with scan chains");
  const AteProgram prog =
      export_ate_program(*result.netlist, result.chains, result.scheme,
                         result.atpg.patterns, on_chip_);
  last_cycles_ = prog.num_cycles();
  prog.write(*os_);
}

}  // namespace occ
