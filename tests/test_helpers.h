// Shared test utilities: a random sequential-netlist generator, two
// independent reference fault simulators used as oracles against the
// packed PPSFP engine -- a scalar one-pattern simulator (ref_detects)
// and a brute-force 64-lane full simulator (RefFaultSim) -- the
// unlimited-budget SAT verdict (sat_verdict) the ATPG engines' outcomes
// are checked against, and a one-call minimal Session (session_atpg).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "atpg/unroll.h"
#include "core/clock_scheme.h"
#include "core/ncp.h"
#include "fault/fault.h"
#include "fault/fault_list.h"
#include "fsim/fsim.h"
#include "fsim/pattern.h"
#include "netlist/library.h"
#include "netlist/netlist.h"
#include "sat/probe.h"
#include "util/rng.h"

namespace occ {
namespace test {

/// The complete reference search for one fault instance: an
/// unlimited-budget SAT probe (sat/probe.h) of `uf` under `um`.
/// kSat means a test exists under the model; kUnsat and kNoObservation
/// mean the instance is undetectable. Never kUnknown.
inline sat::Verdict sat_verdict(const UnrolledModel& um,
                                const UnrolledFault& uf) {
  return sat::probe(um, uf, 0).verdict;
}

/// The complete search over a finished session's own capture model:
/// whether sat_verdict finds a test for some instance of a fault under
/// any of the session's capture procedures.
class SatOracle {
 public:
  explicit SatOracle(const SessionResult& r) {
    for (uint32_t nc = 0; nc < r.scheme.procedures.size(); ++nc) {
      models_.push_back(std::make_unique<UnrolledModel>(*r.netlist, r.scheme,
                                                        nc, r.scan_en));
    }
  }
  bool testable(const Fault& f) const {
    for (const auto& um : models_) {
      for (const UnrolledFault& t : um->translate(f)) {
        if (sat_verdict(*um, t) == sat::Verdict::kSat) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<UnrolledModel>> models_;
};

/// Checks every untestability verdict of a finished session against
/// the complete search: a fault the session calls untestable or
/// proven-untestable must have no test under its capture model. Returns
/// how many verdicts it checked, so callers can rule out a vacuous pass.
inline size_t expect_untestable_verdicts_hold(const SessionResult& r) {
  const SatOracle oracle(r);
  size_t checked = 0;
  for (size_t i = 0; i < r.atpg.faults.size(); ++i) {
    const FaultStatus st = r.atpg.faults.status(i);
    if (st != FaultStatus::kUntestable &&
        st != FaultStatus::kProvenUntestable) {
      continue;
    }
    ++checked;
    EXPECT_FALSE(oracle.testable(r.atpg.faults.fault(i)))
        << "fault " << i << " ("
        << fault_to_string(*r.netlist, r.atpg.faults.fault(i))
        << "): the session calls it untestable, but the capture model "
        << "has a test";
  }
  return checked;
}

/// The ATPG result of one minimal Session over the borrowed netlist `nl`
/// (no scan insertion; `scan_en` as given, kNoGate = none; default
/// engine options).
inline AtpgRunResult session_atpg(const Netlist& nl,
                                  const ClockingScheme& scheme,
                                  GateId scan_en,
                                  const AtpgOptions& opts = {}) {
  SessionConfig cfg;
  cfg.design(nl).scan_en(scan_en).scheme(scheme).atpg(opts);
  return Session(std::move(cfg)).run().atpg;
}

struct RandomNetlistParams {
  size_t pis = 6;
  size_t pos = 4;
  size_t flops = 6;
  size_t gates = 40;
  size_t domains = 2;
};

/// Random DAG with scan-flagged flops across `domains` domains.
inline Netlist random_netlist(Rng& rng, const RandomNetlistParams& p = {}) {
  Netlist nl("rand");
  std::vector<GateId> pool;
  for (size_t i = 0; i < p.pis; ++i) {
    pool.push_back(nl.add_input("pi" + std::to_string(i)));
  }
  std::vector<GateId> ffs;
  for (size_t i = 0; i < p.flops; ++i) {
    const GateId ff =
        nl.add_dff(kNoGate, static_cast<DomainId>(rng.below(p.domains)),
                   "ff" + std::to_string(i), kFlagScan);
    ffs.push_back(ff);
    pool.push_back(ff);
  }
  const GateType kinds[] = {GateType::kAnd, GateType::kNand, GateType::kOr,
                            GateType::kNor, GateType::kXor, GateType::kXnor,
                            GateType::kNot, GateType::kMux2};
  for (size_t i = 0; i < p.gates; ++i) {
    const GateType t = kinds[rng.below(8)];
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    GateId g;
    if (t == GateType::kNot) {
      g = nl.add_gate1(t, pick(), "g" + std::to_string(i));
    } else if (t == GateType::kMux2) {
      g = nl.add_mux2(pick(), pick(), pick(), "g" + std::to_string(i));
    } else {
      GateId a = pick(), b = pick();
      if (a == b) b = pool[(rng.below(pool.size()))];
      g = nl.add_gate2(t, a, b, "g" + std::to_string(i));
    }
    pool.push_back(g);
  }
  for (GateId ff : ffs) {
    nl.connect_dff_d(ff, pool[pool.size() - 1 - rng.below(p.gates / 2)]);
  }
  for (size_t i = 0; i < p.pos; ++i) {
    nl.add_output(pool[pool.size() - 1 - rng.below(p.gates / 2)],
                  "po" + std::to_string(i));
  }
  nl.finalize();
  return nl;
}

/// Observation vector: strobed-PO values per strobe frame, then final
/// scan-cell states. Computed by a direct scalar frame-by-frame
/// simulation, optionally with a fault injected (mirroring the engine's
/// broadside semantics: stuck-at in every frame; transition as stuck-at
/// of the initial value in every at-speed frame whose fault-free launch
/// condition holds).
inline std::vector<V3> ref_observations(const Netlist& nl,
                                        const NamedCaptureProcedure& ncp,
                                        bool scan_en_frozen, GateId scan_en,
                                        const TestPattern& pat,
                                        const Fault* fault) {
  const size_t frames = ncp.cycles.size();
  const std::vector<GateId> scells = scan_cells(nl);
  const GateId site = fault ? fault_net(nl, *fault) : kNoGate;

  // Good pass first (for transition activation frames).
  std::vector<uint64_t> inj_frames;  // frame indices with injection
  if (fault && !is_transition(fault->type)) {
    for (size_t f = 0; f < frames; ++f) inj_frames.push_back(f);
  }

  auto run = [&](bool faulty, const std::vector<V3>* good_site_vals,
                 std::vector<V3>* site_vals_out) {
    std::vector<V3> state(nl.dffs().size(), V3::kX);
    std::vector<int32_t> dpos(nl.size(), -1);
    for (size_t i = 0; i < nl.dffs().size(); ++i) dpos[nl.dffs()[i]] = i;
    for (size_t i = 0; i < scells.size(); ++i) {
      state[static_cast<size_t>(dpos[scells[i]])] = pat.load[i];
    }
    std::vector<V3> obs;
    std::vector<V3> vals(nl.size(), V3::kX);
    for (size_t f = 0; f < frames; ++f) {
      const bool inject =
          faulty && std::find(inj_frames.begin(), inj_frames.end(), f) !=
                        inj_frames.end();
      for (GateId g : nl.topo_order()) {
        const Gate& gate = nl.gate(g);
        if (gate.type == GateType::kInput) {
          size_t pi_pos = 0;
          for (size_t i = 0; i < nl.inputs().size(); ++i) {
            if (nl.inputs()[i] == g) pi_pos = i;
          }
          vals[g] = pat.pi_frames[f][pi_pos];
          if (scan_en_frozen && g == scan_en) vals[g] = V3::k0;
        } else if (gate.type == GateType::kDff) {
          vals[g] = state[static_cast<size_t>(dpos[g])];
        } else if (gate.type == GateType::kTie0) {
          vals[g] = V3::k0;
        } else if (gate.type == GateType::kTie1) {
          vals[g] = V3::k1;
        } else if (gate.type == GateType::kXSource) {
          vals[g] = V3::kX;
        } else {
          std::vector<V3> in;
          for (size_t pin = 0; pin < gate.fanin.size(); ++pin) {
            V3 v = vals[gate.fanin[pin]];
            if (inject && fault->pin != kOutputPin && g == fault->gate &&
                pin == fault->pin) {
              v = v3_from_bool(fault_value(fault->type));
            }
            in.push_back(v);
          }
          vals[g] = eval_gate(gate.type, in);
        }
        if (inject && fault->pin == kOutputPin && g == fault->gate) {
          vals[g] = v3_from_bool(fault_value(fault->type));
        }
      }
      if (site_vals_out) site_vals_out->push_back(vals[site]);
      if (ncp.cycles[f].po_strobe) {
        for (GateId po : nl.outputs()) obs.push_back(vals[po]);
      }
      // Capture. A D-pin branch fault corrupts the captured value.
      std::vector<V3> next = state;
      for (size_t i = 0; i < nl.dffs().size(); ++i) {
        const Gate& ff = nl.gate(nl.dffs()[i]);
        if (ncp.cycles[f].pulses & (DomainMask{1} << ff.domain)) {
          V3 d = vals[ff.fanin[0]];
          if (inject && fault->gate == nl.dffs()[i] && fault->pin == 0) {
            d = v3_from_bool(fault_value(fault->type));
          }
          next[i] = d;
        }
      }
      state = next;
      (void)good_site_vals;
    }
    for (size_t i = 0; i < scells.size(); ++i) {
      obs.push_back(state[static_cast<size_t>(dpos[scells[i]])]);
    }
    return obs;
  };

  if (!fault) return run(false, nullptr, nullptr);

  if (is_transition(fault->type)) {
    // Good pass records the site's frame values.
    std::vector<V3> site_vals;
    run(false, nullptr, &site_vals);
    const V3 init = v3_from_bool(fault_value(fault->type));
    const V3 fin = v3_not(init);
    for (size_t k = 1; k < frames; ++k) {
      if (ncp.cycles[k].at_speed && site_vals[k - 1] == init &&
          site_vals[k] == fin) {
        inj_frames.push_back(k);
      }
    }
    if (inj_frames.empty()) return run(false, nullptr, nullptr);
  }
  return run(true, nullptr, nullptr);
}

/// Hard detection: some observation position where good and faulty are
/// both known and differ.
inline bool ref_detects(const Netlist& nl, const NamedCaptureProcedure& ncp,
                        bool scan_en_frozen, GateId scan_en,
                        const TestPattern& pat, const Fault& f) {
  const auto good = ref_observations(nl, ncp, scan_en_frozen, scan_en, pat,
                                     nullptr);
  const auto bad =
      ref_observations(nl, ncp, scan_en_frozen, scan_en, pat, &f);
  for (size_t i = 0; i < good.size(); ++i) {
    if (good[i] != V3::kX && bad[i] != V3::kX && good[i] != bad[i]) {
      return true;
    }
  }
  return false;
}

/// Brute-force reference for NcpFaultSim: an interpreter that simulates
/// every gate of the netlist, good and faulty, in every frame of one
/// packed batch -- no observability cones, no event schedule, no overlay
/// arenas, no STR/STF pairing -- one fault at a time, 64 lanes per word.
/// Its one shortcut is exact: a faulty frame that starts from the good
/// machine's state and injects nothing on any lane is the good frame, so
/// it is copied rather than re-simulated. Fault semantics follow the
/// engine's contract (fsim/fsim.h): stuck-at forced in every frame,
/// transition forced as the stuck-at of its initial value in each
/// at-speed frame whose fault-free launch condition holds on that lane.
class RefFaultSim {
 public:
  struct Masks {
    uint64_t hard = 0;
    uint64_t poss = 0;
    bool operator==(const Masks&) const = default;
  };

  RefFaultSim(const Netlist& nl, const ClockingScheme& s, GateId scan_en,
              const PatternBatch& b)
      : nl_(nl),
        ncp_(s.procedures[b.ncp_index]),
        scan_en_(s.scan_en_frozen ? scan_en : kNoGate),
        batch_(b),
        live_(NcpFaultSim::live_mask(b)),
        pos_(nl.size(), 0) {
    for (size_t i = 0; i < nl.inputs().size(); ++i) pos_[nl.inputs()[i]] = i;
    for (size_t i = 0; i < nl.dffs().size(); ++i) pos_[nl.dffs()[i]] = i;
    for (const GateId sc : scan_cells(nl)) scan_pos_.push_back(pos_[sc]);
    for (const GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      order_.push_back({g, gate.type, fanins_.size(), gate.fanin.size()});
      fanins_.insert(fanins_.end(), gate.fanin.begin(), gate.fanin.end());
      max_fanin_ = std::max(max_fanin_, gate.fanin.size());
    }
    std::vector<Val64> load(nl.dffs().size(), Val64::allx());
    for (size_t i = 0; i < scan_pos_.size(); ++i) {
      load[scan_pos_[i]] = b.load[i];
    }
    good_states_.push_back(std::move(load));
    run(nullptr, {}, [this](size_t, const auto& vals, const auto& state) {
      good_frames_.push_back(vals);
      good_states_.push_back(state);
      return true;
    });
  }

  /// Detection masks of `f` over the live lanes, observed the way the
  /// engine observes: strobed POs frame by frame, stopping after the
  /// first frame that hard-detects on some lane, then -- if none did --
  /// the scan-cell unload. Differences involving X count as possible.
  Masks masks(const Fault& f) const {
    const size_t frames = ncp_.cycles.size();
    std::vector<uint64_t> inj(frames, 0);
    if (is_transition(f.type)) {
      const GateId site = fault_net(nl_, f);
      const bool init = fault_value(f.type);
      for (size_t k = 1; k < frames; ++k) {
        if (!ncp_.cycles[k].at_speed) continue;
        const Val64 prev = good_frames_[k - 1][site];
        const Val64 now = good_frames_[k][site];
        inj[k] = (init ? prev.is1() & now.is0() : prev.is0() & now.is1()) &
                 live_;
      }
    } else {
      inj.assign(frames, live_);
    }
    Masks m;
    const auto observe = [&m](Val64 g, Val64 b) {
      m.hard |= (g.v ^ b.v) & ~g.x & ~b.x;
      m.poss |= g.x ^ b.x;
    };
    const std::vector<Val64> final_state = run(
        &f, inj, [&](size_t k, const std::vector<Val64>& vals, const auto&) {
          if (!ncp_.cycles[k].po_strobe) return true;
          for (const GateId po : nl_.outputs()) {
            observe(good_frames_[k][po], vals[po]);
          }
          return m.hard == 0;
        });
    if (m.hard == 0) {
      const std::vector<Val64>& good_final = good_states_.back();
      for (const size_t p : scan_pos_) observe(good_final[p], final_state[p]);
    }
    return {m.hard & live_, m.poss & live_};
  }

  /// Grades every fault of `fl` the engine still simulates, one fault
  /// at a time in fault-index order: the statuses, detection slots and
  /// stats NcpFaultSim::detect_faults must reproduce (minus the work
  /// counters, which only the engine has). Statuses are read before any
  /// is written, as the engine probes the whole batch before applying.
  FsimStats grade(FaultList& fl,
                  std::vector<std::pair<size_t, unsigned>>* dets) const {
    std::vector<std::pair<size_t, Masks>> probed;
    for (size_t i = 0; i < fl.size(); ++i) {
      if (fsim_wants_simulation(fl.status(i))) {
        probed.emplace_back(i, masks(fl.fault(i)));
      }
    }
    FsimStats st;
    for (const auto& [i, m] : probed) {
      ++st.faults_simulated;
      if (m.hard) {
        fl.set_status(i, FaultStatus::kDetected);
        ++st.newly_detected;
        if (dets) {
          dets->emplace_back(
              i, static_cast<unsigned>(std::countr_zero(m.hard)));
        }
      } else if (m.poss && fl.status(i) == FaultStatus::kUndetected) {
        fl.set_status(i, FaultStatus::kPossiblyDetected);
        ++st.newly_possibly;
      }
    }
    return st;
  }

 private:
  struct Node {
    GateId g;
    GateType type;
    size_t fanin;  // first fanin in fanins_
    size_t nf;
  };

  // Simulates the frames in order from the scan load; `f` (may be null)
  // is forced on lanes inj[k] of frame k. After frame k settles and its
  // pulse captures, frame_done(k, values, state) returns false to stop
  // early. Returns the flop state after the last simulated pulse.
  template <class FrameDone>
  std::vector<Val64> run(const Fault* f, const std::vector<uint64_t>& inj,
                         FrameDone&& frame_done) const {
    const auto& dffs = nl_.dffs();
    std::vector<Val64> state = good_states_.front();
    std::vector<Val64> vals(nl_.size(), Val64::allx());
    std::vector<Val64> ins(max_fanin_);
    for (size_t k = 0; k < ncp_.cycles.size(); ++k) {
      const uint64_t m = f != nullptr ? inj[k] : 0;
      if (f != nullptr && m == 0 && state == good_states_[k]) {
        state = good_states_[k + 1];
        if (!frame_done(k, good_frames_[k], state)) break;
        continue;
      }
      const auto force = [&](Val64 v) {
        return Val64{fault_value(f->type) ? v.v | m : v.v & ~m, v.x & ~m};
      };
      for (const Node& n : order_) {
        Val64& out = vals[n.g];
        switch (n.type) {
          case GateType::kInput:
            out = n.g == scan_en_ ? Val64::all0()
                                  : batch_.pi_frames[k][pos_[n.g]];
            break;
          case GateType::kDff:
            out = state[pos_[n.g]];
            break;
          case GateType::kTie0:
            out = Val64::all0();
            break;
          case GateType::kTie1:
            out = Val64::all1();
            break;
          case GateType::kXSource:
            out = Val64::allx();
            break;
          default:
            for (size_t i = 0; i < n.nf; ++i) ins[i] = vals[fanins_[n.fanin + i]];
            if (m != 0 && n.g == f->gate && f->pin < n.nf) {
              ins[f->pin] = force(ins[f->pin]);
            }
            out = eval_gate_packed(n.type, {ins.data(), n.nf});
        }
        if (m != 0 && n.g == f->gate && f->pin == kOutputPin) out = force(out);
      }
      for (size_t i = 0; i < dffs.size(); ++i) {
        const Gate& ff = nl_.gate(dffs[i]);
        if (!(ncp_.cycles[k].pulses & (DomainMask{1} << ff.domain))) continue;
        const Val64 d = vals[ff.fanin[0]];
        state[i] = m != 0 && f->gate == dffs[i] && f->pin == 0 ? force(d) : d;
      }
      if (!frame_done(k, vals, state)) break;
    }
    return state;
  }

  const Netlist& nl_;
  const NamedCaptureProcedure& ncp_;
  GateId scan_en_;  // forced to 0 in every frame; kNoGate if not frozen
  PatternBatch batch_;
  uint64_t live_;
  std::vector<size_t> pos_;       // PI gate -> PI position, DFF -> dff pos
  std::vector<size_t> scan_pos_;  // scan position -> dff position
  std::vector<Node> order_;       // every gate, topological order
  std::vector<GateId> fanins_;    // Node::fanin indexes here
  size_t max_fanin_ = 0;
  std::vector<std::vector<Val64>> good_frames_;  // [frame][gate]
  std::vector<std::vector<Val64>> good_states_;  // [frame + 1][dff pos]:
                                                 // flop state entering
                                                 // frame k; back() = unload
};

/// Reference grading of patterns [first, first + n) of `ps`, batched
/// like NcpFaultSim's window API (maximal same-NCP runs, 64 lanes per
/// sweep, fault dropping across sweeps, slots relative to `first`).
inline FsimStats ref_grade_window(
    const Netlist& nl, const ClockingScheme& s, GateId scan_en,
    const PatternSet& ps, size_t first, size_t n, FaultList& fl,
    std::vector<std::pair<size_t, unsigned>>* dets) {
  FsimStats st;
  for (size_t i = first; i < first + n;) {
    const uint32_t ncp = ps[i].ncp_index;
    size_t run_end = i + 1;
    while (run_end < first + n && ps[run_end].ncp_index == ncp) ++run_end;
    for (size_t b = i; b < run_end; b += 64) {
      const PatternBatch batch = pack_batch(
          ps, b, std::min<size_t>(64, run_end - b), nl, s.procedures[ncp]);
      std::vector<std::pair<size_t, unsigned>> d;
      st += RefFaultSim(nl, s, scan_en, batch).grade(fl, &d);
      for (const auto& [fault, slot] : d) {
        if (dets) {
          dets->emplace_back(fault, static_cast<unsigned>(b - first) + slot);
        }
      }
    }
    i = run_end;
  }
  return st;
}

}  // namespace test
}  // namespace occ
