#include "engine/access_path.h"

#include <algorithm>

namespace upi::engine {

UnclusteredAccessPath::UnclusteredAccessPath(
    std::unique_ptr<baseline::UnclusteredTable> table, int primary_column,
    const std::vector<catalog::Tuple>& tuples)
    : table_(std::move(table)), primary_column_(primary_column) {
  const catalog::Schema& sch = table_->schema();
  for (size_t col = 0; col < sch.num_columns(); ++col) {
    int c = static_cast<int>(col);
    if (c != primary_column_ && table_->pii(c) == nullptr) continue;
    if (sch.column(col).type != catalog::ValueType::kDiscrete) continue;
    histogram::ProbHistogram& hist =
        histograms_.emplace(c, histogram::ProbHistogram{}).first->second;
    for (const catalog::Tuple& t : tuples) {
      const catalog::Value& v = t.Get(c);
      if (v.type() != catalog::ValueType::kDiscrete) continue;
      for (const auto& alt : v.discrete().alternatives()) {
        hist.Add(alt.value, t.existence() * alt.prob, /*is_first=*/false);
      }
    }
  }
}

PathStats UnclusteredAccessPath::Stats() const {
  PathStats s;
  storage::HeapFile* heap = table_->heap();
  s.table.table_bytes = heap->pager()->file()->size_bytes();
  s.table.num_leaf_pages = heap->num_pages();
  baseline::PiiIndex* pii = table_->pii(primary_column_);
  s.table.btree_height = pii != nullptr ? pii->tree()->height() : 1;
  s.table.num_fractures = 1;
  s.table.page_size = heap->pager()->file()->page_size();
  s.heap_entries = heap->live_records();
  s.num_tuples = table_->num_tuples();
  s.seek_span_bytes = heap->pager()->file()->disk()->SeekSpan();
  auto it = histograms_.find(primary_column_);
  s.distinct_primary_values =
      it != histograms_.end()
          ? static_cast<double>(it->second.distinct_values())
          : 0.0;
  s.supports_direct_topk = pii != nullptr;
  s.clustered = false;
  return s;
}

Status UnclusteredAccessPath::Insert(const catalog::Tuple& tuple) {
  return table_->Insert(tuple);
}

Status UnclusteredAccessPath::Delete(const catalog::Tuple& tuple) {
  return table_->Delete(tuple.id());
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenPtq(
    std::string_view value, double qt) const {
  return table_->OpenPii(primary_column_, value, qt);
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenTopK(
    std::string_view value, size_t k) const {
  return table_->OpenTopK(primary_column_, value, k);
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenSecondary(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode) const {
  // PII entries carry a single RID — there is nothing to tailor. Eager, as
  // every design's secondary probe: the whole probe runs here and its rows
  // are served in confidence order.
  std::vector<core::PtqMatch> rows;
  Status st = table_->OpenPii(column, value, qt)->Drain(&rows);
  return std::make_unique<MaterializedCursor>(std::move(rows), std::move(st));
}

Status UnclusteredAccessPath::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  Status st = Status::OK();
  table_->heap()->Scan([&](storage::Rid, std::string_view record) {
    if (!st.ok()) return false;
    st = catalog::TupleView::Validate(record);
    if (!st.ok()) return false;
    fn(catalog::TupleView(record));
    return true;
  });
  return st;
}

bool UnclusteredAccessPath::HasSecondary(int column) const {
  return table_->pii(column) != nullptr;
}

double UnclusteredAccessPath::CountMatches(int column, std::string_view value,
                                           double qt) const {
  auto it = histograms_.find(column);
  if (it == histograms_.end()) return 0.0;
  return it->second.CountRest(value, qt, 1.0 + 1e-9);
}

histogram::PtqEstimate UnclusteredAccessPath::EstimatePtq(
    std::string_view value, double qt) const {
  histogram::PtqEstimate est;
  est.heap_entries = CountMatches(primary_column_, value, qt);
  double total = static_cast<double>(table_->num_tuples());
  est.selectivity = total > 0 ? std::min(1.0, est.heap_entries / total) : 0.0;
  return est;
}

double UnclusteredAccessPath::EstimateSecondaryMatches(int column,
                                                       std::string_view value,
                                                       double qt) const {
  return CountMatches(column, value, qt);
}

double UnclusteredAccessPath::EstimateTopKThreshold(std::string_view value,
                                                    size_t k) const {
  auto it = histograms_.find(primary_column_);
  if (it == histograms_.end()) return 0.0;
  histogram::SelectivityEstimator est(&it->second);
  return est.EstimateKthThreshold(value, k);
}

}  // namespace upi::engine
