#include "exec/operators.h"


#include "exec/cursor.h"
#include "obs/trace.h"

namespace upi::exec {

Status Execute(const core::AccessPath& path, const engine::Plan& plan,
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
  core::SortByConfidenceDesc(&rows);
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

}  // namespace upi::exec
