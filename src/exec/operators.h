// Executor operators over the engine's AccessPath abstraction.
//
// Execute() runs a planner-produced Plan materialized: the plan's cursor
// (exec/cursor.h) fully drained, plus the final confidence sort and the
// k/LIMIT trim — the EXPLAIN output and the executed physical operator can
// never disagree, because both come from the same Plan. ScanFilter() is the
// sequential fallback the planner picks when a pointer sweep saturates.
// RunBatch() is the batched cursor-merging layer: it groups
// same-(column, value) probes into one cursor at the group's lowest
// threshold and fans the drained rows back out per query, and runs distinct
// groups in sorted key order so consecutive probes land in nearby heap
// regions — amortizing the per-probe Costinit + H * Tseek that dominates
// fractured and cold-cache workloads.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/access_path.h"
#include "engine/planner.h"

namespace upi::exec {

/// Runs `plan` against `path`. Results are sorted by descending confidence
/// (ties by TupleId); top-k / LIMIT plans are truncated, and rows failing
/// `predicate` (when given) are dropped before the limit counts them.
Status Execute(const engine::AccessPath& path, const engine::Plan& plan,
               std::vector<core::PtqMatch>* out,
               std::function<bool(const catalog::Tuple&)> predicate = {});

/// Sequential-sweep operator: one full scan, keeping tuples whose combined
/// probability of `value` in `column` reaches `qt` — Execute() of a
/// heap-scan plan. Exact (the full tuple is inspected), deduplicated.
Status ScanFilter(const engine::AccessPath& path, int column,
                  std::string_view value, double qt,
                  std::vector<core::PtqMatch>* out);

/// One probe of a batch: a PTQ on the primary attribute (column == -1) or a
/// secondary probe.
struct ProbeSpec {
  int column = -1;
  std::string value;
  double qt = 0.5;
};

/// Batched execution. `results` has one entry per probe, in input order,
/// each sorted by descending confidence.
Status RunBatch(const engine::AccessPath& path,
                const std::vector<ProbeSpec>& probes,
                std::vector<std::vector<core::PtqMatch>>* results);

}  // namespace upi::exec
