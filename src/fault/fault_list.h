// Fault list bookkeeping: statuses, classification and coverage metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/collapse.h"
#include "fault/fault.h"

namespace occ {

enum class FaultStatus : uint8_t {
  kUndetected,        // not yet targeted or targeted without success
  kDetected,          // hard-detected by some pattern
  kPossiblyDetected,  // differs only via X at an observation point
  kUntestable,        // proven untestable under the active constraints
  kAborted,           // ATPG gave up (backtrack limit)
  kProvenUntestable,  // SAT probe proved no test exists (UNSAT miter)
};

std::string_view fault_status_name(FaultStatus s);

/// Secondary classification of untestable/undetected faults, following the
/// paper's section 6 proposal to group faults that cannot cause at-speed
/// failures (non-functional scan path, PO-masked, uninitializable state).
enum class FaultClass : uint8_t {
  kNone,
  kScanPath,    // only testable through scan-enable paths frozen in capture
  kPoMasked,    // only observable at masked primary outputs
  kNonScanX,    // requires uninitializable non-scan state
  kConstant,    // tied logic
  kInterDomain, // requires a cross-domain launch/capture
  kLowSpeed,    // fed only by primary inputs (pad-launched transitions)
};

/// Collapsed fault list with status tracking.
class FaultList {
 public:
  FaultList() = default;

  /// Builds the collapsed list for `model` over `nl`.
  static FaultList build(const Netlist& nl, FaultModel model);

  size_t size() const { return faults_.size(); }
  const Fault& fault(size_t i) const { return faults_[i]; }
  const std::vector<Fault>& faults() const { return faults_; }
  /// FNV-1a hash of the fault definitions (site, pin, type), computed
  /// once by build(). The definitions never change afterwards (copies
  /// keep them, statuses do not enter), so engines key per-list caches
  /// on (fingerprint, size) instead of rehashing the list per call.
  uint64_t fingerprint() const { return fingerprint_; }

  FaultStatus status(size_t i) const { return status_[i]; }
  void set_status(size_t i, FaultStatus s);
  FaultClass fault_class(size_t i) const { return class_[i]; }
  void set_class(size_t i, FaultClass c) { class_[i] = c; }

  /// Indices still undetected (and not untestable/aborted).
  std::vector<size_t> undetected() const;

  size_t count(FaultStatus s) const;

  /// Fault coverage: detected / total.
  double fault_coverage() const;
  /// Test coverage: detected / (total - untestable - proven-untestable),
  /// the paper's metric (proven-redundant faults leave the denominator).
  double test_coverage() const;
  /// ATPG effectiveness: (detected + untestable + proven-untestable) /
  /// total.
  double atpg_effectiveness() const;

  /// One-line summary.
  std::string summary() const;

  size_t uncollapsed_count() const { return uncollapsed_count_; }

 private:
  std::vector<Fault> faults_;
  std::vector<FaultStatus> status_;
  std::vector<FaultClass> class_;
  size_t uncollapsed_count_ = 0;
  uint64_t fingerprint_ = 0;
  // Cached tallies, maintained by set_status.
  size_t tally_[6] = {0, 0, 0, 0, 0, 0};
};

std::ostream& operator<<(std::ostream& os, const FaultList& fl);

}  // namespace occ
