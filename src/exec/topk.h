// Top-k strategies over access paths (paper Sections 3.1 and 9).
//
// Because the UPI clusters each value's entries in descending probability,
// it serves as an efficient Tuple Access Layer (Soliman et al. [14]): top-k
// needs only the first k entries, which AccessPath::OpenTopK streams. Section
// 9 sketches two TAL strategies for engines that only expose threshold
// queries:
//  * estimate a minimum probability and issue one PTQ with it;
//  * issue PTQs with geometrically decreasing thresholds until k results.
// Both are TopKByDecreasingThreshold over core::AccessPath cursors,
// so they run unchanged against a plain UPI, a Fractured UPI, a partitioned
// table, or the PII baseline; they differ only in the starting threshold the
// planner sets (engine::Plan::initial_qt: the histogram's estimate of the
// k-th confidence, 0.25 when it has none, or a fixed 0.5).
#pragma once

#include <string_view>
#include <vector>

#include "core/access_path.h"

namespace upi::exec {

/// Section 9: "access UPI a few times with decreasing probability
/// thresholds until the answer is produced", starting at `initial_qt`.
/// Returns the number of PTQ rounds used via `rounds` (for tests /
/// diagnostics).
Status TopKByDecreasingThreshold(const core::AccessPath& path,
                                 std::string_view value, size_t k,
                                 double initial_qt,
                                 std::vector<core::PtqMatch>* out,
                                 int* rounds = nullptr);

}  // namespace upi::exec
