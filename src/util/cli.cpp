#include "util/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace occ {
namespace {

/// Strict decimal parse: digits only (no sign, no leading whitespace —
/// strtoull would silently skip it and wrap negatives), no trailing
/// garbage, no overflow.
bool parse_decimal(const char* value, unsigned long long* out) {
  if (!std::isdigit(static_cast<unsigned char>(value[0]))) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(value, &end, 10);
  return end != value && *end == '\0' && errno != ERANGE;
}

}  // namespace

bool parse_size_flag(const char* flag, const char* value, size_t* out) {
  if (value == nullptr) {
    std::cerr << flag << " requires a value\n";
    return false;
  }
  unsigned long long v = 0;
  if (!parse_decimal(value, &v) || v > static_cast<size_t>(-1)) {
    std::cerr << flag << " expects a non-negative integer, got '" << value
              << "'\n";
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

bool parse_positive_flag(const char* flag, const char* value, size_t* out) {
  if (value == nullptr) {
    std::cerr << flag << " requires a value\n";
    return false;
  }
  unsigned long long v = 0;
  if (!parse_decimal(value, &v) || v == 0 || v > static_cast<size_t>(-1)) {
    std::cerr << flag << " expects a positive integer, got '" << value
              << "'\n";
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

int parse_engine_flag(const char* flag, const char* value,
                      EngineOptions* out) {
  if (std::strcmp(flag, "--shards") == 0) {
    return parse_size_flag(flag, value, &out->fsim.shards) ? 2 : -1;
  }
  if (std::strcmp(flag, "--atpg-shards") == 0) {
    return parse_size_flag(flag, value, &out->atpg_shards) ? 2 : -1;
  }
  if (std::strcmp(flag, "--sat-budget") == 0) {
    size_t v = 0;
    if (!parse_size_flag(flag, value, &v)) return -1;
    out->sat_conflict_budget = v;
    return 2;
  }
  return 0;
}

}  // namespace occ
