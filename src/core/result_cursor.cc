#include "core/result_cursor.h"

#include <algorithm>

namespace upi::core {

void SortByConfidenceDesc(std::vector<PtqMatch>* matches) {
  auto before = [](const PtqMatch& a, const PtqMatch& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    return a.id < b.id;
  };
  // Eager cursors already serve this order; re-sorting their drained rows
  // costs one linear pass.
  if (std::is_sorted(matches->begin(), matches->end(), before)) return;
  std::sort(matches->begin(), matches->end(), before);
}

bool ResultCursor::Advance() {
  if (!status_.ok()) return false;
  if (limit_ > 0 && rows_ >= limit_) return false;
  for (;;) {
    if (!Produce(&slot_)) return false;
    if (predicate_ && !predicate_(slot_.view())) continue;
    ++rows_;
    return true;
  }
}

bool ResultCursor::Next(RowView* row) {
  if (!Advance()) return false;
  *row = slot_.view();
  return true;
}

bool ResultCursor::TakeNext(PtqMatch* match) {
  if (!Advance()) return false;
  *match = std::move(slot_);
  return true;
}

Status ResultCursor::Drain(std::vector<PtqMatch>* out) {
  while (Advance()) out->push_back(std::move(slot_));
  return status_;
}

MaterializedCursor::MaterializedCursor(std::vector<PtqMatch> rows,
                                       Status status)
    : rows_(std::move(rows)) {
  status_ = std::move(status);
  SortByConfidenceDesc(&rows_);
}

bool MaterializedCursor::Produce(PtqMatch* out) {
  if (idx_ >= rows_.size()) return false;
  *out = std::move(rows_[idx_++]);
  return true;
}

}  // namespace upi::core
