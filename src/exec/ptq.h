// Small result-set utilities shared by the PTQ execution paths.
#pragma once

#include <string>
#include <vector>

#include "core/result_cursor.h"

namespace upi::exec {

/// The one result-order sort (descending confidence, ties by TupleId).
using core::SortByConfidenceDesc;

/// One-line human-readable summary ("42 tuples, conf 0.95..0.12").
std::string Summarize(const std::vector<core::PtqMatch>& matches);

}  // namespace upi::exec
