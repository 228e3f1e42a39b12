#include "exec/cursor.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "exec/topk.h"
#include "prob/confidence.h"

namespace upi::exec {

namespace {

/// One k-bounded top-k run: the path's direct cursor, or the Section 9
/// threshold descent (both threshold plans share it; they differ only in the
/// planner-set starting threshold).
std::unique_ptr<engine::ResultCursor> OpenTopKRun(
    const core::AccessPath& path, const engine::Plan& plan, size_t k) {
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
/// exactly k raw rows: the survivors are kept, and it is rerun with the
/// bound doubled until k rows survive or the table runs out (the run came
/// back short). Either way the predicate sees each row once.
std::unique_ptr<engine::ResultCursor> OpenFilteredTopK(
    const core::AccessPath& path, const engine::Plan& plan,
    core::RowPredicate predicate) {
  std::unique_ptr<engine::ResultCursor> run = OpenTopKRun(path, plan, plan.k);
  if (!predicate) return run;
  if (!run->eager()) {
    run->SetPredicate(std::move(predicate));
    return run;
  }
  for (size_t want = plan.k;; want *= 2) {
    std::vector<core::PtqMatch> rows;
    Status st = run->Drain(&rows);
    run.reset();
    const size_t raw = rows.size();
    std::erase_if(rows, [&](const core::PtqMatch& m) {
      return !predicate(m.view());
    });
    if (!st.ok() || rows.size() >= plan.k || raw < want) {
      return std::make_unique<engine::MaterializedCursor>(std::move(rows),
                                                          std::move(st));
    }
    run = OpenTopKRun(path, plan, want * 2);
  }
}

/// Sequential-sweep operator: one full scan keeping tuples whose combined
/// probability of `value` in `column` reaches `qt` (exact: the tuple's
/// `column` is decoded, alone; deduplicated). The confidence is rounded to
/// the 2^-30 grid index keys store, so a row reports the same confidence,
/// and qualifies at the same threshold, under every plan.
std::unique_ptr<engine::ResultCursor> OpenScanFilter(
    const core::AccessPath& path, int column, std::string_view value,
    double qt) {
  // The filter rides along so paths with pruning metadata can skip storage
  // units that cannot contain a qualifying alternative; the exact per-tuple
  // check below still decides every emitted row.
  std::vector<core::PtqMatch> rows;
  Status decoded = Status::OK();
  Status st = path.ScanTuplesMatching(
      column, value, qt, [&](catalog::TupleView tuple) {
        if (!decoded.ok()) return;
        Result<catalog::Value> v = tuple.Column(static_cast<size_t>(column));
        if (!v.ok()) {
          decoded = v.status();
          return;
        }
        if (v.value().type() != catalog::ValueType::kDiscrete) return;
        double conf = QuantizeProb(prob::Confidence(
            tuple.existence(), v.value().discrete().ProbabilityOf(value)));
        if (conf < qt || conf <= 0.0) return;
        rows.push_back(core::PtqMatch{tuple.id(), conf, {}});
        decoded = rows.back().tuple.Assign(tuple.bytes());
      });
  if (st.ok()) st = decoded;
  return std::make_unique<engine::MaterializedCursor>(std::move(rows),
                                                      std::move(st));
}

/// Query::Where's predicate on a row: the row's tuple decoded once.
core::RowPredicate OnDecodedTuple(
    std::function<bool(const catalog::Tuple&)> predicate) {
  if (!predicate) return {};
  return [predicate = std::move(predicate)](const core::RowView& row) {
    Result<catalog::Tuple> tuple = row.tuple.Decode();
    return tuple.ok() && predicate(tuple.value());
  };
}

}  // namespace

Result<std::unique_ptr<engine::ResultCursor>> OpenCursor(
    const core::AccessPath& path, const engine::Plan& plan,
    std::function<bool(const catalog::Tuple&)> predicate) {
  core::RowPredicate row_predicate = OnDecodedTuple(std::move(predicate));
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
      // The top-k run applies the predicate itself.
      cursor = OpenFilteredTopK(path, plan, std::exchange(row_predicate, {}));
      break;
  }
  UPI_RETURN_NOT_OK(cursor->status());
  if (row_predicate) cursor->SetPredicate(std::move(row_predicate));
  size_t limit = plan.limit;
  if (plan.k > 0 && (limit == 0 || plan.k < limit)) limit = plan.k;
  cursor->SetLimit(limit);
  return cursor;
}

}  // namespace upi::exec
