#include "exec/operators.h"

#include <algorithm>
#include <map>

#include "exec/cursor.h"
#include "exec/ptq.h"
#include "obs/trace.h"

namespace upi::exec {

Status Execute(const engine::AccessPath& path, const engine::Plan& plan,
               std::vector<core::PtqMatch>* out,
               std::function<bool(const catalog::Tuple&)> predicate) {
  obs::QueryTrace* trace = obs::CurrentTrace();
  const size_t trace_ops_before = trace != nullptr ? trace->ops.size() : 0;
  obs::TraceOpScope whole_op;
  UPI_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                       OpenCursor(path, plan, std::move(predicate)));
  // LIMIT keeps the highest-confidence rows, so it applies only after the
  // confidence sort — left in the cursor it would truncate in storage order,
  // which differs once a PTQ spills into the cutoff phase. Early-exit LIMIT
  // is OpenCursor()'s job; top-k stays pushed down (its stream is the k
  // bound).
  cursor->SetLimit(plan.k);
  std::vector<core::PtqMatch> rows;
  UPI_RETURN_NOT_OK(cursor->Drain(&rows));
  cursor.reset();
  SortByConfidenceDesc(&rows);
  if (plan.k > 0 && rows.size() > plan.k) rows.resize(plan.k);
  if (plan.limit > 0 && rows.size() > plan.limit) rows.resize(plan.limit);
  // Plans with no finer-grained instrumentation (clustered probes, scans,
  // union plans) still get one operator record covering the execution.
  if (trace != nullptr && trace->ops.size() == trace_ops_before &&
      whole_op.active()) {
    whole_op.Finish(engine::PlanKindName(plan.kind), rows.size());
  }
  if (out->empty()) {
    *out = std::move(rows);
  } else {
    out->insert(out->end(), std::make_move_iterator(rows.begin()),
                std::make_move_iterator(rows.end()));
  }
  return Status::OK();
}

Status ScanFilter(const engine::AccessPath& path, int column,
                  std::string_view value, double qt,
                  std::vector<core::PtqMatch>* out) {
  engine::Plan plan;
  plan.kind = engine::PlanKind::kHeapScan;
  plan.column = column;
  plan.value = std::string(value);
  plan.qt = qt;
  return Execute(path, plan, out);
}

Status RunBatch(const engine::AccessPath& path,
                const std::vector<ProbeSpec>& probes,
                std::vector<std::vector<core::PtqMatch>>* results) {
  results->clear();
  results->resize(probes.size());

  // Group probes sharing (column, value); one physical probe per group at
  // the group's lowest threshold. std::map keeps groups sorted, so distinct
  // probes proceed in key order (monotonic head movement).
  struct Group {
    double min_qt = 1.0;
    std::vector<size_t> members;
  };
  std::map<std::pair<int, std::string>, Group> groups;
  for (size_t i = 0; i < probes.size(); ++i) {
    Group& g = groups[{probes[i].column, probes[i].value}];
    g.min_qt = std::min(g.min_qt, probes[i].qt);
    g.members.push_back(i);
  }

  for (auto& [key, group] : groups) {
    const auto& [column, value] = key;
    // One cursor per group at the group's lowest threshold; its drained
    // stream fans back out to every member query.
    engine::Plan plan;
    plan.kind = column < 0 ? engine::PlanKind::kPrimaryProbe
                           : engine::PlanKind::kSecondaryTailored;
    plan.column = column;
    plan.value = value;
    plan.qt = group.min_qt;
    std::vector<core::PtqMatch> rows;
    UPI_RETURN_NOT_OK(Execute(path, plan, &rows));
    for (size_t idx : group.members) {
      std::vector<core::PtqMatch>& slot = (*results)[idx];
      slot = rows;
      FilterByThreshold(&slot, probes[idx].qt);
    }
  }
  return Status::OK();
}

}  // namespace upi::exec
