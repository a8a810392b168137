#include "atpg/engine.h"

#include <sstream>

namespace occ {

std::string AtpgRunResult::summary() const {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed;
  os << scheme_name << ": TC=" << test_coverage() * 100.0
     << "% FC=" << fault_coverage() * 100.0
     << "% patterns=" << patterns.size() << " (rand=" << random_patterns
     << ", det=" << deterministic_patterns;
  if (external_patterns > 0) os << ", ext=" << external_patterns;
  os << ")"
     << " untestable=" << faults.count(FaultStatus::kUntestable)
     << " proven_untestable="
     << faults.count(FaultStatus::kProvenUntestable)
     << " aborted=" << faults.count(FaultStatus::kAborted)
     << " t=" << seconds << "s";
  return os.str();
}

}  // namespace occ
