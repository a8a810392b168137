/// \file
/// Shared command-line flag parsing for the occ drivers (`occ`,
/// bench_engines, bench_table1): strict decimal parsing that rejects
/// non-numeric input instead of silently reading it as 0 the way
/// std::atoi does, plus the one shared parser for the engine-selection
/// flags every driver speaks. All drivers report a usage error and exit
/// 2 on a malformed value.
#pragma once

#include <cstddef>

#include "fsim/options.h"

namespace occ {

/// Parses a non-negative decimal flag value into `*out`. On failure
/// (null/empty/non-numeric/trailing garbage) prints a usage message
/// naming `flag` to stderr and returns false.
bool parse_size_flag(const char* flag, const char* value, size_t* out);

/// Like parse_size_flag but additionally rejects 0 ("expects a positive
/// integer"). For flags like --repeat where 0 is meaningless.
bool parse_positive_flag(const char* flag, const char* value, size_t* out);

/// The shared engine-flag vocabulary every driver speaks:
///   --shards N                             (FsimOptions::shards)
///   --atpg-shards N                        (EngineOptions::atpg_shards)
///   --sat-budget CONFLICTS                 (EngineOptions::sat_conflict_budget)
///
/// `flag` is the current argv token, `value` the next one (or null at
/// argv's end). Returns the number of argv tokens consumed: 0 when
/// `flag` is not an engine flag (the driver handles it), 2 for a flag +
/// value pair, and -1 on a malformed value (a usage message naming the
/// flag was printed to stderr; exit 2).
int parse_engine_flag(const char* flag, const char* value,
                      EngineOptions* out);

}  // namespace occ
