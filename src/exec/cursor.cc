#include "exec/cursor.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "exec/topk.h"

namespace upi::exec {

namespace {

/// One k-bounded top-k run: the path's direct cursor, or the Section 9
/// threshold descent (both threshold plans share it; they differ only in the
/// planner-set starting threshold).
std::unique_ptr<engine::ResultCursor> OpenTopKRun(
    const engine::AccessPath& path, const engine::Plan& plan, size_t k) {
  if (plan.kind == engine::PlanKind::kTopKDirect) {
    return path.OpenTopK(plan.value, k);
  }
  std::vector<core::PtqMatch> rows;
  Status st =
      TopKByDecreasingThreshold(path, plan.value, k, plan.initial_qt, &rows);
  return std::make_unique<engine::MaterializedCursor>(std::move(rows),
                                                      std::move(st));
}

/// Top-k whose k rows must survive `predicate`. A streaming run filters as
/// it descends, so its k bound already counts survivors. An eager run holds
/// exactly k raw rows: it is rerun with the bound doubled until k rows
/// survive or the table runs out (the run came back short).
std::unique_ptr<engine::ResultCursor> OpenFilteredTopK(
    const engine::AccessPath& path, const engine::Plan& plan,
    const std::function<bool(const catalog::Tuple&)>& predicate) {
  std::unique_ptr<engine::ResultCursor> run = OpenTopKRun(path, plan, plan.k);
  if (!predicate || !run->eager()) return run;
  for (size_t want = plan.k;; want *= 2) {
    std::vector<core::PtqMatch> rows;
    Status st = run->Drain(&rows);
    run.reset();
    size_t passing = std::count_if(
        rows.begin(), rows.end(),
        [&](const core::PtqMatch& m) { return predicate(m.tuple); });
    if (!st.ok() || passing >= plan.k || rows.size() < want) {
      return std::make_unique<engine::MaterializedCursor>(std::move(rows),
                                                          std::move(st));
    }
    run = OpenTopKRun(path, plan, want * 2);
  }
}

/// Sequential-sweep operator: one full scan keeping tuples whose combined
/// probability of `value` in `column` reaches `qt` (exact: the full tuple is
/// inspected; deduplicated). The confidence is rounded to the 2^-30 grid
/// index keys store, so a row reports the same confidence, and qualifies at
/// the same threshold, under every plan.
std::unique_ptr<engine::ResultCursor> OpenScanFilter(
    const engine::AccessPath& path, int column, std::string_view value,
    double qt) {
  // The filter rides along so paths with pruning metadata can skip storage
  // units that cannot contain a qualifying alternative; the exact per-tuple
  // check below still decides every emitted row.
  std::vector<core::PtqMatch> rows;
  Status st = path.ScanTuplesMatching(
      column, value, qt, [&](const catalog::Tuple& tuple) {
        double conf = QuantizeProb(
            tuple.ConfidenceOf(static_cast<size_t>(column), value));
        if (conf < qt || conf <= 0.0) return;
        rows.push_back(core::PtqMatch{tuple.id(), conf, tuple});
      });
  return std::make_unique<engine::MaterializedCursor>(std::move(rows),
                                                      std::move(st));
}

}  // namespace

Result<std::unique_ptr<engine::ResultCursor>> OpenCursor(
    const engine::AccessPath& path, const engine::Plan& plan,
    std::function<bool(const catalog::Tuple&)> predicate) {
  std::unique_ptr<engine::ResultCursor> cursor;
  switch (plan.kind) {
    case engine::PlanKind::kPrimaryProbe:
      cursor = path.OpenPtq(plan.value, plan.qt);
      break;
    case engine::PlanKind::kSecondaryFirstPointer:
      cursor = path.OpenSecondary(plan.column, plan.value, plan.qt,
                                  core::SecondaryAccessMode::kFirstPointer);
      break;
    case engine::PlanKind::kSecondaryTailored:
      cursor = path.OpenSecondary(plan.column, plan.value, plan.qt,
                                  core::SecondaryAccessMode::kTailored);
      break;
    case engine::PlanKind::kHeapScan:
      cursor = OpenScanFilter(
          path, plan.column >= 0 ? plan.column : path.primary_column(),
          plan.value, plan.qt);
      break;
    case engine::PlanKind::kTopKDirect:
    case engine::PlanKind::kTopKEstimatedThreshold:
    case engine::PlanKind::kTopKDecreasingThreshold:
      cursor = OpenFilteredTopK(path, plan, predicate);
      break;
  }
  UPI_RETURN_NOT_OK(cursor->status());
  if (predicate) cursor->SetPredicate(std::move(predicate));
  size_t limit = plan.limit;
  if (plan.k > 0 && (limit == 0 || plan.k < limit)) limit = plan.k;
  cursor->SetLimit(limit);
  return cursor;
}

}  // namespace upi::exec
