#include "fault/fault_list.h"

#include <ostream>
#include <sstream>

#include "util/check.h"

namespace occ {

std::string_view fault_status_name(FaultStatus s) {
  switch (s) {
    case FaultStatus::kUndetected: return "undetected";
    case FaultStatus::kDetected: return "detected";
    case FaultStatus::kPossiblyDetected: return "possibly-detected";
    case FaultStatus::kUntestable: return "untestable";
    case FaultStatus::kAborted: return "aborted";
    case FaultStatus::kProvenUntestable: return "proven-untestable";
  }
  return "?";
}

FaultList FaultList::build(const Netlist& nl, FaultModel model) {
  FaultList fl;
  const std::vector<Fault> all = enumerate_faults(nl, model);
  CollapsedFaults col = collapse_faults(nl, all);
  fl.faults_ = std::move(col.representatives);
  fl.uncollapsed_count_ = col.uncollapsed_count;
  fl.status_.assign(fl.faults_.size(), FaultStatus::kUndetected);
  fl.class_.assign(fl.faults_.size(), FaultClass::kNone);
  fl.tally_[static_cast<size_t>(FaultStatus::kUndetected)] =
      fl.faults_.size();
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Fault& f : fl.faults_) {
    mix(f.gate);
    mix((uint64_t{f.pin} << 8) | static_cast<uint64_t>(f.type));
  }
  fl.fingerprint_ = h;
  return fl;
}

void FaultList::set_status(size_t i, FaultStatus s) {
  OCC_DCHECK(i < status_.size());
  // Detected is sticky; untestable cannot be downgraded to undetected.
  const FaultStatus old = status_[i];
  if (old == s) return;
  if (old == FaultStatus::kDetected) return;
  tally_[static_cast<size_t>(old)]--;
  status_[i] = s;
  tally_[static_cast<size_t>(s)]++;
}

std::vector<size_t> FaultList::undetected() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < status_.size(); ++i) {
    if (status_[i] == FaultStatus::kUndetected ||
        status_[i] == FaultStatus::kPossiblyDetected) {
      out.push_back(i);
    }
  }
  return out;
}

size_t FaultList::count(FaultStatus s) const {
  return tally_[static_cast<size_t>(s)];
}

double FaultList::fault_coverage() const {
  if (faults_.empty()) return 0.0;
  return static_cast<double>(count(FaultStatus::kDetected)) /
         static_cast<double>(faults_.size());
}

double FaultList::test_coverage() const {
  const size_t denom = faults_.size() - count(FaultStatus::kUntestable) -
                       count(FaultStatus::kProvenUntestable);
  if (denom == 0) return 0.0;
  return static_cast<double>(count(FaultStatus::kDetected)) /
         static_cast<double>(denom);
}

double FaultList::atpg_effectiveness() const {
  if (faults_.empty()) return 0.0;
  return static_cast<double>(count(FaultStatus::kDetected) +
                             count(FaultStatus::kUntestable) +
                             count(FaultStatus::kProvenUntestable)) /
         static_cast<double>(faults_.size());
}

std::string FaultList::summary() const {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed;
  os << "faults=" << faults_.size() << " (from " << uncollapsed_count_
     << " uncollapsed)"
     << " det=" << count(FaultStatus::kDetected)
     << " unt=" << count(FaultStatus::kUntestable)
     << " prv=" << count(FaultStatus::kProvenUntestable)
     << " abt=" << count(FaultStatus::kAborted)
     << " und=" << count(FaultStatus::kUndetected)
     << " FC=" << fault_coverage() * 100.0
     << "% TC=" << test_coverage() * 100.0 << "%";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const FaultList& fl) {
  return os << fl.summary();
}

}  // namespace occ
