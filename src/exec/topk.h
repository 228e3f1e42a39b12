// Top-k strategies over access paths (paper Sections 3.1 and 9).
//
// Because the UPI clusters each value's entries in descending probability,
// it serves as an efficient Tuple Access Layer (Soliman et al. [14]): top-k
// needs only the first k entries. Section 9 sketches two TAL strategies for
// engines that only expose threshold queries; both are implemented here over
// the engine's AccessPath cursors, so they run unchanged against a plain
// UPI, a Fractured UPI, a partitioned table, or the PII baseline:
//  * estimate a minimum probability and issue one PTQ with it;
//  * issue PTQs with geometrically decreasing thresholds until k results.
#pragma once

#include <string_view>
#include <vector>

#include "engine/access_path.h"

namespace upi::exec {

/// Direct top-k: the path's OpenTopK cursor drained (rows appended in its
/// order). NotSupported when Stats().supports_direct_topk is false.
Status TopKDirect(const engine::AccessPath& path, std::string_view value,
                  size_t k, std::vector<core::PtqMatch>* out);

/// Section 9, second approach: "access UPI a few times with decreasing
/// probability thresholds until the answer is produced." Returns the number
/// of PTQ rounds used via `rounds` (for tests / diagnostics).
Status TopKByDecreasingThreshold(const engine::AccessPath& path,
                                 std::string_view value, size_t k,
                                 double initial_qt,
                                 std::vector<core::PtqMatch>* out,
                                 int* rounds = nullptr);

/// Section 9, first approach: use the probability histogram to estimate the
/// minimum confidence of the k-th answer and issue a single PTQ with it
/// (falling back to halving if the estimate was too high).
Status TopKByEstimatedThreshold(const engine::AccessPath& path,
                                std::string_view value, size_t k,
                                std::vector<core::PtqMatch>* out);

}  // namespace upi::exec
