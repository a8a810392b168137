#include "fsim/fsim.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "fault/order.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace occ {
namespace {

/// Slots where a and b are both known and disagree.
uint64_t hard_diff(Val64 a, Val64 b) {
  return (a.v ^ b.v) & ~a.x & ~b.x;
}

/// Slots where exactly one of a, b is known (X-marginal disagreement).
uint64_t possible_diff(Val64 a, Val64 b) { return a.x ^ b.x; }

/// Any difference, hard or possible.
bool differs(Val64 a, Val64 b) {
  return (hard_diff(a, b) | possible_diff(a, b)) != 0;
}

/// `w` with lanes `mask` forced to the bits of `forced_v` (a subset of
/// `mask`).
Val64 force(Val64 w, uint64_t mask, uint64_t forced_v) {
  return {(w.v & ~mask) | forced_v, w.x & ~mask};
}

/// Sign-extends a 0x00/0xFF lowering mask to a full lane word without a
/// branch.
uint64_t lane_mask(uint8_t m) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(m)));
}

/// Complements the known lanes of `w` where `mask` is set.
Val64 complement(Val64 w, uint64_t mask) {
  return {(w.v ^ mask) & ~w.x, w.x};
}

}  // namespace

NcpFaultSim::NcpFaultSim(const Netlist& nl, const ClockingScheme& scheme,
                         GateId scan_en_pi,
                         std::shared_ptr<const ConeArtifactSource> shared)
    : nl_(&nl),
      scheme_(&scheme),
      scan_en_pi_(scan_en_pi),
      shared_(std::move(shared)),
      private_(shared_ ? 0 : scheme.procedures.size()),
      sim_(nl) {
  dff_pos_.assign(nl.size(), -1);
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_pos_[nl.dffs()[i]] = static_cast<int32_t>(i);
  }
  scan_cells_ = scan_cells(nl);
  scan_pos_.assign(nl.dffs().size(), -1);
  for (size_t i = 0; i < scan_cells_.size(); ++i) {
    scan_pos_[static_cast<size_t>(dff_pos_[scan_cells_[i]])] =
        static_cast<int32_t>(i);
  }
  d_feeds_.assign(nl.size(), {});
  dff_d_.resize(nl.dffs().size());
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    const GateId d = nl.gate(nl.dffs()[i]).fanin[0];
    d_feeds_[d].push_back(static_cast<uint32_t>(i));
    dff_d_[i] = d;
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    max_fanin_ = std::max(max_fanin_, nl.gate(g).fanin.size());
  }
}

void NcpFaultSim::simulate_good(const PatternBatch& batch) {
  OCC_CHECK(batch.ncp_index < scheme_->procedures.size(),
            "batch NCP out of range");
  cur_ncp_ = &scheme_->procedures[batch.ncp_index];
  // Bind the NCP's cone artifacts: the shared frozen ones, else this
  // engine's private copies (built on first use).
  if (shared_) {
    cur_obs_ = &shared_->shared_frame_obs(batch.ncp_index);
    cur_prog_ = &shared_->shared_cone_program(batch.ncp_index);
  } else {
    PrivateCones& pc = private_[batch.ncp_index];
    if (!pc.built) {
      pc.obs = build_frame_obs(*nl_, *cur_ncp_);
      pc.prog = compile_cone_program(*nl_, *cur_ncp_, pc.obs);
      pc.built = true;
    }
    cur_obs_ = &pc.obs;
    cur_prog_ = &pc.prog;
  }
  const size_t frames = cur_ncp_->cycles.size();
  const auto& dffs = nl_->dffs();

  // The per-frame buffers only grow: they hold the longest procedure
  // seen so far, and `frames` (the bound NCP's length) is the live
  // count. So a warmed-up engine that alternates procedures of
  // different lengths -- compaction does -- never reallocates them, and
  // detect_faults runs this per batch inside the zero-allocation hot
  // loop. Every live element is overwritten below.
  if (good_.frames.size() < frames) good_.frames.resize(frames);
  if (good_.state.size() < frames + 1) good_.state.resize(frames + 1);
  for (auto& s : good_.state) s.resize(dffs.size());

  // Load: scan cells get the pattern, non-scan cells power up X.
  sim_.reset_x();
  for (size_t i = 0; i < scan_cells_.size(); ++i) {
    sim_.set_state(scan_cells_[i], batch.load[i]);
  }
  for (size_t i = 0; i < dffs.size(); ++i) {
    good_.state[0][i] = sim_.state(dffs[i]);
  }

  for (size_t f = 0; f < frames; ++f) {
    const auto& pis = nl_->inputs();
    OCC_CHECK(batch.pi_frames[f].size() == pis.size(), "PI width mismatch");
    for (size_t i = 0; i < pis.size(); ++i) {
      sim_.set_input(pis[i], batch.pi_frames[f][i]);
    }
    if (scheme_->scan_en_frozen && scan_en_pi_ != kNoGate) {
      sim_.set_input(scan_en_pi_, Val64::all0());
    }
    sim_.eval();
    good_.frames[f] = sim_.values();
    sim_.capture(cur_ncp_->cycles[f].pulses);
    for (size_t i = 0; i < dffs.size(); ++i) {
      good_.state[f + 1][i] = sim_.state(dffs[i]);
    }
  }
  good_.final_state = good_.state[frames];

  // Pack the good-machine frames into dense-id order: the values every
  // shard's arenas are primed with. Once per batch, amortized over every
  // fault probed against it.
  if (good_dense_.size() < frames) good_dense_.resize(frames);
  for (size_t f = 0; f < frames; ++f) {
    const FrameProgram& fp = cur_prog_->frames[f];
    auto& gd = good_dense_[f];
    gd.resize(fp.num_nodes);
    const std::vector<Val64>& frame = good_.frames[f];
    for (uint32_t n = 0; n < fp.num_nodes; ++n) {
      gd[n] = frame[fp.gate_of[n]];
    }
  }
  ++batch_;
}

void NcpFaultSim::prime(Scratch& sc) const {
  if (sc.batch == batch_) return;
  sc.batch = batch_;
  // Size the bitset for the NCP's largest frame cone (never shrinks:
  // one engine may alternate between procedures).
  const size_t nodes = cur_prog_->max_nodes;
  const size_t dffs = dff_d_.size();
  if (sc.active.size() < (nodes + 63) / 64) {
    sc.active.resize((nodes + 63) / 64, 0);
  }
  if (sc.cand_stamp.size() < dffs) sc.cand_stamp.resize(dffs, 0);
  // Reserve every per-pass buffer to its structural bound, so no probe
  // grows one whichever units the shard claims: a frame pass evaluates
  // each cone node at most once and seeds at most one write per carried
  // flop plus the site; carried diffs and capture candidates are
  // distinct flops. (No-ops once grown.)
  sc.touched.reserve(nodes + dffs + 1);
  sc.state_a.reserve(dffs);
  sc.state_b.reserve(dffs);
  sc.cand_dffs.reserve(dffs);
  sc.wide_ins.reserve(max_fanin_);
  const size_t frames = cur_ncp_->cycles.size();
  sc.inj_a.reserve(frames);
  sc.inj_b.reserve(frames);
  // Grow-only like the good machine's frames; copy-assignment reuses
  // each arena's capacity once it has grown.
  if (sc.frame_vals.size() < frames) sc.frame_vals.resize(frames);
  for (size_t f = 0; f < frames; ++f) sc.frame_vals[f] = good_dense_[f];
}

std::vector<V3> NcpFaultSim::expected_unload(unsigned slot) const {
  std::vector<V3> out;
  out.reserve(scan_cells_.size());
  for (GateId sc : scan_cells_) {
    const int32_t pos = dff_pos_[sc];
    out.push_back(good_.final_state[static_cast<size_t>(pos)].get(slot));
  }
  return out;
}

Val64 NcpFaultSim::off_cone_value(
    GateId g, size_t k, const std::vector<StateDiff>& in_state) const {
  const int32_t pos = dff_pos_[g];
  if (pos >= 0) {
    for (const StateDiff& sd : in_state) {
      if (sd.dff_pos == static_cast<uint32_t>(pos)) return sd.faulty;
    }
  }
  return good_.frames[k][g];
}

void NcpFaultSim::propagate_frame(Scratch& sc, size_t k, GateId site_gate,
                                  uint8_t site_pin, uint64_t inj_mask,
                                  uint64_t forced_v,
                                  const std::vector<StateDiff>& in_state,
                                  std::vector<StateDiff>* out_state,
                                  uint64_t* hard_po, uint64_t* poss_po,
                                  FsimWork* work) const {
  const uint32_t ep = ++sc.epoch;
  const FrameProgram& fp = cur_prog_->frames[k];
  const std::vector<Val64>& good = good_.frames[k];
  const Val64* goodd = good_dense_[k].data();
  Val64* vals = sc.frame_vals[k].data();
  const ConeNode* nodes = fp.nodes.data();
  uint64_t* active = sc.active.data();
  const auto& dffs = nl_->dffs();
  auto& touched = sc.touched;
  auto& cand_dffs = sc.cand_dffs;
  uint32_t* cand_stamp = sc.cand_stamp.data();
  cand_dffs.clear();

  // The arena holds the frame's good values between passes; every write
  // records its node so the pass can restore them on the way out
  // (duplicate entries are fine -- restoring twice is idempotent). This
  // is what makes the operand gather below one contiguous load and
  // `new == previous` an exact skip condition, with no epoch stamps.
  auto write_val = [&](uint32_t node, Val64 v) {
    vals[node] = v;
    touched.push_back(node);
  };

  // A stem injection at an off-cone site still corrupts captured flop
  // state (the carried corruption rides along, observable or not). The
  // forced word is kept here for the capture pass's reads.
  Val64 off_cone_site{};
  bool site_stem_off_cone = false;

  // Fanout and dfeed lists are pre-filtered by the lowering, so liveness,
  // sequential and pulse checks are compiled away. The sweep only visits
  // the bitset word range activations actually touched.
  uint32_t wlo = 0xFFFFFFFFu, whi = 0;
  auto activate = [&](uint32_t node) {
    ++work->events_processed;
    const uint32_t word = node >> 6;
    active[word] |= 1ull << (node & 63);
    wlo = std::min(wlo, word);
    whi = std::max(whi, word);
  };
  auto activate_fanouts = [&](uint32_t node) {
    for (uint32_t k = nodes[node].fanout_begin;
         k < nodes[node + 1].fanout_begin; ++k) {
      activate(fp.fanout[k]);
    }
  };
  auto add_cand = [&](uint32_t pos) {
    if (cand_stamp[pos] != ep) {
      cand_stamp[pos] = ep;
      cand_dffs.push_back(pos);
    }
  };
  auto add_cands = [&](uint32_t node) {
    for (uint32_t k = nodes[node].dfeed_begin;
         k < nodes[node + 1].dfeed_begin; ++k) {
      add_cand(fp.dfeed[k]);
    }
  };
  auto add_cands_off_cone = [&](GateId g) {
    for (uint32_t pos : d_feeds_[g]) {
      if (fp.dff_pulsed[pos]) add_cand(pos);
    }
  };

  // Seeds: corrupted flop outputs from the previous pulse.
  for (const StateDiff& sd : in_state) {
    const GateId ff = dffs[sd.dff_pos];
    const bool diff = differs(sd.faulty, good[ff]);
    const int32_t dn = fp.dense_of[ff];
    if (dn >= 0) {
      write_val(static_cast<uint32_t>(dn), sd.faulty);
      if (diff) {
        activate_fanouts(static_cast<uint32_t>(dn));
        add_cands(static_cast<uint32_t>(dn));
      }
    } else if (diff) {
      add_cands_off_cone(ff);
    }
  }

  // Seed: fault injection site.
  int32_t site_dense = -1;
  if (inj_mask != 0) {
    if (site_pin == kOutputPin) {
      site_dense = fp.dense_of[site_gate];
      const Val64 g = site_dense >= 0
                          ? vals[site_dense]
                          : off_cone_value(site_gate, k, in_state);
      const Val64 forced = force(g, inj_mask, forced_v);
      const bool diff = differs(forced, good[site_gate]);
      if (site_dense >= 0) {
        write_val(static_cast<uint32_t>(site_dense), forced);
        if (diff) {
          activate_fanouts(static_cast<uint32_t>(site_dense));
          add_cands(static_cast<uint32_t>(site_dense));
        }
      } else {
        off_cone_site = forced;
        site_stem_off_cone = true;
        if (diff) add_cands_off_cone(site_gate);
      }
    } else if (!is_sequential(nl_->gate(site_gate).type)) {
      // Branch fault: re-evaluate only the faulted gate (if in-cone).
      site_dense = fp.dense_of[site_gate];
      if (site_dense >= 0) activate(static_cast<uint32_t>(site_dense));
    } else if (nl_->gate(site_gate).type == GateType::kDff &&
               site_pin == 0) {
      // Branch fault on a flop's D pin: the captured value is computed
      // at the capture pass below (forced from the D net's final value).
      // Deduped against the in_state seeds: when the D net is itself a
      // corrupted flop, its position is already a candidate.
      add_cand(static_cast<uint32_t>(dff_pos_[site_gate]));
    }
  }

  // Linear sweep: dense ids are level-ordered, and an evaluation only
  // activates strictly higher ids, so one ascending pass over the
  // bitset words visits every event in level order (the inner loop
  // re-reads its word to pick up same-word activations, and the word
  // bound `whi` grows as activations land past it).
  Val64 ins[2];
  for (uint32_t wi = wlo; wi <= whi; ++wi) {
    while (uint64_t w = active[wi]) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_zero(w));
      active[wi] = w & (w - 1);
      const uint32_t node = (wi << 6) | bit;
      ++work->gate_evals;

      const ConeNode rec = nodes[node];
      // Gather: inline operands for the dominant <= 2-input gates (the
      // record itself carries them), pool indirection for the rest.
      Val64* iv;
      if (rec.nf <= 2) {
        ins[0] = vals[rec.in0];
        ins[1] = vals[rec.in1];  // unused for nf < 2 (in1 == 0 is safe)
        iv = ins;
      } else {
        sc.wide_ins.resize(rec.nf);
        for (uint32_t i = 0; i < rec.nf; ++i) {
          sc.wide_ins[i] = vals[fp.fanin_pool[rec.in0 + i]];
        }
        iv = sc.wide_ins.data();
      }
      const bool is_site =
          static_cast<int32_t>(node) == site_dense && inj_mask != 0;
      if (is_site && site_pin != kOutputPin) [[unlikely]] {
        iv[site_pin] = force(iv[site_pin], inj_mask, forced_v);
      }
      // Mask-driven evaluation classes (lowered at compile time): the
      // dominant 2-input cells evaluate branch-free, side-stepping the
      // per-event opcode mispredicts a GateType switch pays. Inputs and
      // output are complemented by the lowering masks (X lanes stay
      // canonical).
      Val64 out;
      switch (rec.cls) {
        case ConeOpClass::kAnd2: {
          const uint64_t mi = lane_mask(rec.inv_in);
          out = complement(v_and(complement(iv[0], mi), complement(iv[1], mi)),
                           lane_mask(rec.inv_out));
          break;
        }
        case ConeOpClass::kXor2:
          out = complement(v_xor(iv[0], iv[1]), lane_mask(rec.inv_out));
          break;
        case ConeOpClass::kUnary:
          out = complement(iv[0], lane_mask(rec.inv_out));
          break;
        default:
          out = eval_gate_packed(static_cast<GateType>(rec.op),
                                 {iv, rec.nf});
          break;
      }
      // A stem fault on this gate keeps its output forced regardless of
      // input corruption (re-evaluation must not wash out the injection).
      if (is_site && site_pin == kOutputPin) [[unlikely]] {
        out = force(out, inj_mask, forced_v);
      }
      // Write-through arena: the node holds its previous value (good if
      // untouched), so an unchanged result needs no write and no events.
      if (out == vals[node]) continue;
      write_val(node, out);
      const Val64 gv = goodd[node];
      if (differs(out, gv)) {
        activate_fanouts(node);
        add_cands(node);
      }
      if (rec.po_probe) {
        *hard_po |= hard_diff(out, gv);
        *poss_po |= possible_diff(out, gv);
      }
    }
  }

  // Next-frame corrupted state: pulsed flops capture faulty D values
  // (the probe-slot candidates above); un-pulsed flops carry their
  // previous corruption forward. D values are read at end-of-frame (a
  // stem site can be re-evaluated mid-sweep, so a value snapshotted at
  // candidate time could be stale).
  out_state->clear();
  const auto& next_state = good_.state[k + 1];
  for (const StateDiff& sd : in_state) {
    if (!fp.dff_pulsed[sd.dff_pos]) out_state->push_back(sd);
  }
  for (const uint32_t pos : cand_dffs) {
    // Only the D-pin-branch seed can name an un-pulsed flop; the feed
    // lists are pulse-filtered at compile time.
    if (!fp.dff_pulsed[pos]) continue;
    const GateId d = dff_d_[pos];
    const int32_t dn = fp.dense_of[d];
    Val64 fd;
    if (dn >= 0) {
      fd = vals[dn];
    } else if (site_stem_off_cone && d == site_gate) {
      fd = off_cone_site;
    } else {
      fd = off_cone_value(d, k, in_state);
    }
    // Branch fault directly on this flop's D pin.
    if (dffs[pos] == site_gate && site_pin == 0 && inj_mask != 0) {
      fd = force(fd, inj_mask, forced_v);
    }
    if (differs(fd, next_state[pos])) out_state->push_back({pos, fd});
  }

  // Restore the arena to the frame's good values for the next pass.
  for (const uint32_t node : touched) vals[node] = goodd[node];
  touched.clear();
}

std::pair<NcpFaultSim::ProbeMasks, NcpFaultSim::ProbeMasks>
NcpFaultSim::simulate_sites(Scratch& sc, const Fault& a, const Fault* b,
                            uint64_t live_mask, FsimWork* work) const {
  const size_t frames = cur_ncp_->cycles.size();
  const GateId site = fault_net(*nl_, a);

  // One pass over the good frames computes every frame's launch lanes
  // for the fault and (when paired) its partner. Launch condition for a
  // transition fault in frame k: the fault-free machine drives the site
  // init -> final across the at-speed pulse pair (k-1, k); STR (slow-
  // to-rise) launches on 0->1, STF on 1->0 -- the two partners read the
  // same pair of good words, so both mask sets fall out of one pass.
  auto& inj_a = sc.inj_a;
  auto& inj_b = sc.inj_b;
  inj_a.assign(frames, 0);
  inj_b.assign(frames, 0);
  uint64_t union_a = 0, union_b = 0;
  if (is_transition(a.type)) {
    const bool a_is_str = !fault_value(a.type);  // STR: slow from 0
    for (size_t k = 1; k < frames; ++k) {
      if (!cur_ncp_->cycles[k].at_speed) continue;
      const Val64 prev = good_.frames[k - 1][site];
      const Val64 now = good_.frames[k][site];
      const uint64_t str = prev.is0() & now.is1() & live_mask;
      const uint64_t stf = prev.is1() & now.is0() & live_mask;
      inj_a[k] = a_is_str ? str : stf;
      inj_b[k] = a_is_str ? stf : str;
      union_a |= inj_a[k];
      union_b |= inj_b[k];
    }
  } else {
    for (size_t k = 0; k < frames; ++k) inj_a[k] = live_mask;
  }

  if (b != nullptr) {
    OCC_DCHECK(b->gate == a.gate && b->pin == a.pin);
    OCC_DCHECK(is_transition(a.type) && is_transition(b->type) &&
               a.type != b->type);
    // Pairing is exact only while the two faults' launch lanes stay
    // disjoint over the whole procedure. A lane can launch at most one
    // transition direction per at-speed pair, but a burst may toggle a
    // site back and forth across *different* pairs; those (rare) faults
    // fall back to two solo passes. A partner with no launch lanes at
    // all also goes solo: its side of the overlay would be pure waste
    // (the solo pass skips every frame at zero cost).
    if ((union_a & union_b) || union_a == 0 || union_b == 0) {
      const ProbeMasks ra =
          simulate_sites(sc, a, nullptr, live_mask, work).first;
      const ProbeMasks rb =
          simulate_sites(sc, *b, nullptr, live_mask, work).first;
      return {ra, rb};
    }
  }

  ProbeMasks ra, rb;
  bool frozen_a = false;          // fault's verdict is final (detected)
  bool frozen_b = (b == nullptr);
  uint64_t seen_a = 0, seen_b = 0;  // lanes injected so far, per fault

  sc.state_a.clear();
  sc.state_b.clear();
  std::vector<StateDiff>* cur = &sc.state_a;
  std::vector<StateDiff>* nxt = &sc.state_b;

  // Clears a frozen fault's lanes from the carried state corruption
  // entering frame k + 1: its verdict is final, so only the live
  // partner's lanes still need propagating (keeps a pair pass within
  // the cost of two solo passes).
  const auto purge_lanes = [this](std::vector<StateDiff>* state, size_t k,
                                  uint64_t lanes) {
    const auto& gstate = good_.state[k + 1];
    size_t w = 0;
    for (StateDiff& sd : *state) {
      const Val64 g = gstate[sd.dff_pos];
      sd.faulty.v = (sd.faulty.v & ~lanes) | (g.v & lanes);
      sd.faulty.x = (sd.faulty.x & ~lanes) | (g.x & lanes);
      if (differs(sd.faulty, g)) (*state)[w++] = sd;
    }
    state->resize(w);
  };

  // Hoist the per-frame observability lookup: which mask row it reads
  // depends only on the fault's shape, not the frame.
  const Gate& site_gate_rec = nl_->gate(a.gate);
  const bool dpin_fault =
      site_gate_rec.type == GateType::kDff && a.pin == 0;
  const size_t dpin_pos =
      dpin_fault ? static_cast<size_t>(dff_pos_[a.gate]) : 0;

  for (size_t k = 0; k < frames; ++k) {
    // A frozen fault stops injecting: its masks are final and its lanes
    // cannot influence the partner's.
    const uint64_t ia = frozen_a ? 0 : inj_a[k];
    const uint64_t ib = (b && !frozen_b) ? inj_b[k] : 0;
    const uint64_t inj = ia | ib;
    // Fault dropping at the frame level: an injection whose site cannot
    // reach any observation point in the remaining frames is dead on
    // arrival -- with no carried state corruption either, the whole
    // frame is skipped. A fault whose site is outside every frame's
    // cone thus costs zero gate evaluations.
    const bool effective =
        inj != 0 && (dpin_fault ? cur_obs_->capture[k][dpin_pos] != 0
                                : cur_obs_->live[k][a.gate] != 0);
    if (!effective && cur->empty()) {
      // Nothing can change this frame; state diffs unchanged.
      continue;
    }
    seen_a |= ia;
    seen_b |= ib;
    // Both faults force the site to the same word: a stuck-at to its
    // stuck value, transition launches to the complement of the good
    // machine's settled value (the transition's initial value).
    const uint64_t forced_v =
        is_transition(a.type) ? ~good_.frames[k][site].v & inj
                              : (fault_value(a.type) ? inj : 0);
    uint64_t hard_po = 0, poss_po = 0;
    propagate_frame(sc, k, a.gate, a.pin, inj, forced_v, *cur, nxt,
                    &hard_po, &poss_po, work);
    // The 64 lanes are independent, so the frame's observation words
    // split exactly by injected-lane ownership. A detected fault's
    // masks freeze where a solo pass would have returned.
    bool newly_frozen = false;
    if (!frozen_a) {
      ra.hard |= hard_po & seen_a;
      ra.poss |= poss_po & seen_a;
      if (ra.hard & live_mask) frozen_a = newly_frozen = true;
    }
    if (!frozen_b) {
      rb.hard |= hard_po & seen_b;
      rb.poss |= poss_po & seen_b;
      if (rb.hard & live_mask) frozen_b = newly_frozen = true;
    }
    std::swap(cur, nxt);
    if (frozen_a && frozen_b) break;
    if (newly_frozen) purge_lanes(cur, k, frozen_a ? seen_a : seen_b);
  }

  // Unload: scan-cell final state is fully observable (only for faults
  // that did not already detect at a PO strobe).
  if (!frozen_a || !frozen_b) {
    for (const StateDiff& sd : *cur) {
      if (scan_pos_[sd.dff_pos] < 0) continue;  // non-scan: unobservable
      const Val64 g = good_.final_state[sd.dff_pos];
      const uint64_t h = hard_diff(sd.faulty, g);
      const uint64_t p = possible_diff(sd.faulty, g);
      if (!frozen_a) {
        ra.hard |= h & seen_a;
        ra.poss |= p & seen_a;
      }
      if (!frozen_b) {
        rb.hard |= h & seen_b;
        rb.poss |= p & seen_b;
      }
    }
  }
  ra.hard &= live_mask;
  ra.poss &= live_mask;
  rb.hard &= live_mask;
  rb.poss &= live_mask;
  return {ra, rb};
}

const std::vector<NcpFaultSim::SimUnit>& NcpFaultSim::sim_units(
    const FaultList& fl) {
  if (fl.fingerprint() == units_key_ && fl.size() == units_size_) {
    return units_;
  }
  // Walk the cone-locality order; a pair is listed where its first
  // fault comes, with that fault leading the overlay pass.
  const std::vector<uint32_t> order = cone_sim_order(*nl_, fl);
  const std::vector<uint32_t> partner = str_stf_partners(fl);
  std::vector<bool> listed(fl.size(), false);
  units_.clear();
  for (const uint32_t i : order) {
    if (listed[i]) continue;
    const uint32_t j = partner[i];
    const bool pair = j != kNoPartner && partner[j] == i;
    units_.push_back({i, pair ? j : kNoPartner});
    listed[i] = true;
    if (pair) listed[j] = true;
  }
  units_key_ = fl.fingerprint();
  units_size_ = fl.size();
  return units_;
}

FsimStats NcpFaultSim::detect_faults(
    const PatternBatch& batch, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections,
    std::span<Scratch> shards, ThreadPool* pool) {
  OCC_CHECK(pool != nullptr ? pool->shards() == shards.size()
                            : shards.size() == 1,
            "detect_faults: ", shards.size(),
            " shard scratches for a pool of ",
            pool != nullptr ? pool->shards() : 1, " shards");
  simulate_good(batch);
  const uint64_t live = live_mask(batch);

  // Leader: this batch's units, in cone order, from one pass over the
  // statuses (a pair whose partner is no longer simulated is probed
  // alone). Nothing writes the fault list until every shard is done.
  live_units_.clear();
  for (const SimUnit& u : sim_units(fl)) {
    const bool a = fsim_wants_simulation(fl.status(u.lead));
    const bool b = u.partner != kNoPartner &&
                   fsim_wants_simulation(fl.status(u.partner));
    if (a) {
      live_units_.push_back({u.lead, b ? u.partner : kNoPartner});
    } else if (b) {
      live_units_.push_back({u.partner, kNoPartner});
    }
  }
  results_.resize(live_units_.size());

  // Shards: claim kUnitChunk consecutive units at a time, so neighbours
  // in cone order share a shard's warm arenas, and write only the
  // result slots they claimed.
  std::atomic<size_t> cursor{0};
  const size_t n = live_units_.size();
  for (Scratch& sc : shards) sc.work = {};
  const auto probe_units = [&](size_t s) {
    Scratch& sc = shards[s];
    prime(sc);
    for (size_t lo = cursor.fetch_add(kUnitChunk); lo < n;
         lo = cursor.fetch_add(kUnitChunk)) {
      const size_t hi = std::min(n, lo + kUnitChunk);
      for (size_t u = lo; u < hi; ++u) {
        const SimUnit& su = live_units_[u];
        results_[u] = simulate_sites(
            sc, fl.fault(su.lead),
            su.partner == kNoPartner ? nullptr : &fl.fault(su.partner),
            live, &sc.work);
      }
    }
  };
  if (n > 0 && pool != nullptr) {
    pool->run(probe_units);
  } else if (n > 0) {
    probe_units(0);
  }

  // Leader: apply the results. Statuses are per fault, so the unit
  // order cannot show in them; new detections are sorted by fault index.
  FsimStats st;
  const size_t first_det = detections ? detections->size() : 0;
  const auto apply = [&](uint32_t i, const ProbeMasks& m) {
    ++st.faults_simulated;
    if (m.hard) {
      fl.set_status(i, FaultStatus::kDetected);
      ++st.newly_detected;
      if (detections) {
        detections->emplace_back(
            i, static_cast<unsigned>(std::countr_zero(m.hard)));
      }
    } else if (m.poss && fl.status(i) == FaultStatus::kUndetected) {
      fl.set_status(i, FaultStatus::kPossiblyDetected);
      ++st.newly_possibly;
    }
  };
  for (size_t u = 0; u < n; ++u) {
    apply(live_units_[u].lead, results_[u].first);
    if (live_units_[u].partner != kNoPartner) {
      apply(live_units_[u].partner, results_[u].second);
    }
  }
  if (detections) {
    std::sort(detections->begin() + static_cast<std::ptrdiff_t>(first_det),
              detections->end());
  }
  for (const Scratch& sc : shards) {
    st.gate_evals += sc.work.gate_evals;
    st.events_processed += sc.work.events_processed;
  }
  return st;
}

FsimStats grade_window(const PatternSet& ps, size_t first, size_t n,
                       const Netlist& nl, const ClockingScheme& scheme,
                       std::vector<std::pair<size_t, unsigned>>* detections,
                       const BatchGrader& grade_batch) {
  OCC_CHECK(first + n <= ps.size(), "detect_faults: window out of range");
  FsimStats st;
  std::vector<std::pair<size_t, unsigned>> dets;
  const size_t end = first + n;
  for (size_t i = first; i < end;) {
    // Maximal same-NCP run, swept 64 lanes at a time.
    const uint32_t ncp = ps[i].ncp_index;
    size_t run_end = i + 1;
    while (run_end < end && ps[run_end].ncp_index == ncp) ++run_end;
    for (size_t b = i; b < run_end; b += 64) {
      const PatternBatch batch =
          pack_batch(ps, b, std::min<size_t>(64, run_end - b), nl,
                     scheme.procedures[ncp]);
      if (detections == nullptr) {
        st += grade_batch(batch, nullptr);
        continue;
      }
      dets.clear();
      st += grade_batch(batch, &dets);
      for (const auto& [fault, slot] : dets) {
        detections->emplace_back(
            fault, static_cast<unsigned>(b - first) + slot);
      }
    }
    i = run_end;
  }
  return st;
}

FsimStats NcpFaultSim::detect_faults(
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* detections) {
  return grade_window(
      ps, first, n, *nl_, *scheme_, detections,
      [&](const PatternBatch& batch,
          std::vector<std::pair<size_t, unsigned>>* dets) {
        return detect_faults(batch, fl, dets);
      });
}

}  // namespace occ
