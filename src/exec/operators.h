// Materialized plan execution over core::AccessPath (core/access_path.h).
//
// Execute() runs a planner-produced Plan materialized: the plan's cursor
// (exec/cursor.h) fully drained, plus the final confidence sort and the
// k/LIMIT trim — the EXPLAIN output and the executed physical operator can
// never disagree, because both come from the same Plan. A heap-scan plan is
// the sequential fallback the planner picks when a pointer sweep saturates.
#pragma once

#include <functional>
#include <vector>

#include "core/access_path.h"
#include "engine/planner.h"

namespace upi::exec {

/// Runs `plan` against `path` and appends this execution's rows to `out`,
/// after whatever `out` already holds (which is left as it is). The
/// appended rows are sorted by descending confidence (ties by TupleId);
/// top-k / LIMIT plans are truncated, and rows failing `predicate` (when
/// given; it sees each candidate's tuple decoded once) are dropped before
/// the limit counts them.
Status Execute(const core::AccessPath& path, const engine::Plan& plan,
               std::vector<core::PtqMatch>* out,
               std::function<bool(const catalog::Tuple&)> predicate = {});

}  // namespace upi::exec
