// Pull-based plan execution: the cursor layer under the declarative Query
// API, and the one place a Plan meets the physical read interface.
//
// OpenCursor() turns a planner-produced Plan into a core::ResultCursor: the
// one the table's design returns for the plan's kind (core/access_path.h),
// or an eager cursor over a scan or a threshold top-k run. Streaming
// cursors — clustered PTQ (Algorithm 2) and top-k, the Fractured PTQ
// fan-out, the PII probe's heap fetches — execute incrementally: a consumer
// that stops after k rows never runs the deferred phases (cutoff pointer
// collection, later fractures, remaining heap fetches), which is where
// LIMIT/top-k beat full execution on simulated page reads. Eager cursors
// (secondary probes, the fractured and PII top-k, scans, threshold top-k,
// the partitioned gather) computed their rows at open and serve them.
//
// Row order: eager cursors serve descending confidence (ties by TupleId);
// streaming cursors deliver storage order — the heap phase (descending
// confidence within the probed region) before the cutoff phase, a Fractured
// table's RAM buffer before its fractures. Execute() (exec/operators.h) is a
// drained cursor plus the final confidence sort.
#pragma once

#include <functional>
#include <memory>

#include "core/access_path.h"
#include "engine/planner.h"

namespace upi::exec {

/// Opens a cursor executing `plan` against `path`. The cursor enforces
/// plan.k / plan.limit (whichever is tighter) and, when given, `predicate`,
/// which sees each candidate row's tuple decoded once.
/// A plan whose open already failed (an eager read's error) is returned as
/// that error.
Result<std::unique_ptr<engine::ResultCursor>> OpenCursor(
    const core::AccessPath& path, const engine::Plan& plan,
    std::function<bool(const catalog::Tuple&)> predicate = {});

}  // namespace upi::exec
