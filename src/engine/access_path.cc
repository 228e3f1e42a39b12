#include "engine/access_path.h"

#include <algorithm>
#include <unordered_set>

namespace upi::engine {

namespace {

double AvgEntryBytes(uint64_t table_bytes, uint64_t entries) {
  return entries == 0 ? 0.0
                      : static_cast<double>(table_bytes) /
                            static_cast<double>(entries);
}

}  // namespace

// ---------------------------------------------------------------------------
// AccessPath defaults
// ---------------------------------------------------------------------------

core::PruneEstimate AccessPath::EstimatePrune(int, std::string_view,
                                              double) const {
  // No pruning metadata: every fracture is probed and a sweep transfers the
  // whole table.
  PathStats s = Stats();
  core::PruneEstimate pe;
  pe.total_fractures = s.table.num_fractures > 0 ? s.table.num_fractures : 1;
  pe.probed_fractures = static_cast<double>(pe.total_fractures);
  pe.probed_bytes = s.table.table_bytes;
  return pe;
}

// ---------------------------------------------------------------------------
// UpiAccessPath
// ---------------------------------------------------------------------------

PathStats UpiAccessPath::Stats() const {
  PathStats s;
  s.table = core::TableStats::Of(*upi_);
  s.cutoff = upi_->options().cutoff;
  s.heap_entries = upi_->heap_entries();
  s.num_tuples = upi_->num_tuples();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  s.seek_span_bytes =
      upi_->heap_tree()->pager()->file()->disk()->SeekSpan();
  s.distinct_primary_values =
      static_cast<double>(upi_->prob_histogram().distinct_values());
  s.charges_open_per_query = upi_->options().charge_open_per_query;
  s.supports_direct_topk = true;
  s.clustered = true;
  return s;
}

Status UpiAccessPath::Insert(const catalog::Tuple& tuple) {
  return upi_->Insert(tuple);
}

Status UpiAccessPath::Delete(const catalog::Tuple& tuple) {
  return upi_->Delete(tuple);
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenPtq(std::string_view value,
                                                     double qt) const {
  return upi_->OpenPtq(value, qt);
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenTopK(std::string_view value,
                                                      size_t k) const {
  return upi_->OpenTopK(value, k);
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenSecondary(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode mode) const {
  return upi_->OpenSecondary(column, value, qt, mode);
}

Status UpiAccessPath::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  // ScanHeap opens the heap file as OpenPtq does (and as ScanMs prices it).
  // The heap duplicates a tuple once per (non-cutoff) alternative; report
  // each tuple once.
  std::unordered_set<catalog::TupleId> seen;
  Status st = Status::OK();
  upi_->ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
    if (!st.ok()) return;
    core::UpiKey k;
    Status dst = core::DecodeUpiKey(key, &k);
    if (!dst.ok()) {
      st = dst;
      return;
    }
    if (!seen.insert(k.id).second) return;
    st = catalog::TupleView::Validate(tuple_bytes);
    if (st.ok()) fn(catalog::TupleView(tuple_bytes));
  });
  return st;
}

bool UpiAccessPath::HasSecondary(int column) const {
  return upi_->secondary(column) != nullptr;
}

histogram::PtqEstimate UpiAccessPath::EstimatePtq(std::string_view value,
                                                  double qt) const {
  return upi_->EstimatePtq(value, qt);
}

double UpiAccessPath::EstimateSecondaryMatches(int column,
                                               std::string_view value,
                                               double qt) const {
  return upi_->EstimateSecondaryMatches(column, value, qt);
}

double UpiAccessPath::SecondaryAvgPointers(int column) const {
  core::SecondaryIndex* sec = upi_->secondary(column);
  return sec == nullptr ? 1.0 : sec->avg_pointers();
}

double UpiAccessPath::EstimateTopKThreshold(std::string_view value,
                                            size_t k) const {
  histogram::SelectivityEstimator est(&upi_->prob_histogram());
  return est.EstimateKthThreshold(value, k);
}

// ---------------------------------------------------------------------------
// FracturedAccessPath
// ---------------------------------------------------------------------------

const std::string& FracturedAccessPath::name() const { return table_->name(); }

PathStats FracturedAccessPath::Stats() const {
  PathStats s;
  s.cutoff = table_->options().cutoff;
  s.table.page_size = core::Upi::kPageSize;
  uint32_t fractures = 0;
  table_->ForEachFractureShared([&](const core::Upi& u) {
    core::TableStats t = core::TableStats::Of(u);
    s.table.table_bytes += t.table_bytes;
    s.table.num_leaf_pages += t.num_leaf_pages;
    s.table.btree_height = std::max(s.table.btree_height, t.btree_height);
    ++fractures;
    s.heap_entries += u.heap_entries();
    s.num_tuples += u.num_tuples();
    s.seek_span_bytes = u.heap_tree()->pager()->file()->disk()->SeekSpan();
    // Values recur across fractures: the widest fracture approximates the
    // distinct count better than the sum.
    s.distinct_primary_values =
        std::max(s.distinct_primary_values,
                 static_cast<double>(u.prob_histogram().distinct_values()));
  });
  s.table.num_fractures = fractures > 0 ? fractures : 1;
  s.num_tuples += table_->buffered_inserts();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  // Priced cold, as Section 6.2's Cost_frac: Costinit per probed fracture.
  // At run time a fracture pays it only while its file handle is closed
  // (first touch after its build or a DbEnv::ColdCache()).
  s.charges_open_per_query = true;
  // Summary-pruned fan-out with a running k-th-score bound (see
  // FracturedUpi::OpenTopK); each probed fracture streams k rows at most.
  s.supports_direct_topk = true;
  s.clustered = true;
  return s;
}

Status FracturedAccessPath::Insert(const catalog::Tuple& tuple) {
  UPI_RETURN_NOT_OK(table_->Insert(tuple));
  if (manager_ != nullptr) manager_->NotifyWrite(table_.get());
  return Status::OK();
}

Status FracturedAccessPath::Delete(const catalog::Tuple& tuple) {
  UPI_RETURN_NOT_OK(table_->Delete(tuple.id()));
  if (manager_ != nullptr) manager_->NotifyWrite(table_.get());
  return Status::OK();
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenPtq(
    std::string_view value, double qt) const {
  return table_->OpenPtq(value, qt);
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenTopK(
    std::string_view value, size_t k) const {
  return table_->OpenTopK(value, k);
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenSecondary(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode mode) const {
  return table_->OpenSecondary(column, value, qt, mode);
}

Status FracturedAccessPath::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  return table_->ScanTuples(fn);
}

Status FracturedAccessPath::ScanTuplesMatching(
    int column, std::string_view value, double qt,
    const std::function<void(catalog::TupleView)>& fn) const {
  return table_->ScanTuplesMatching(column, value, qt, fn);
}

bool FracturedAccessPath::HasSecondary(int column) const {
  bool has = false;
  table_->ForEachFractureShared(
      [&](const core::Upi& u) { has |= u.secondary(column) != nullptr; });
  return has;
}

histogram::PtqEstimate FracturedAccessPath::EstimatePtq(std::string_view value,
                                                        double qt) const {
  histogram::PtqEstimate est;
  double total_heap = 0.0;
  table_->ForEachFractureShared([&](const core::Upi& u) {
    histogram::PtqEstimate e = u.EstimatePtq(value, qt);
    est.heap_entries += e.heap_entries;
    est.cutoff_pointers += e.cutoff_pointers;
    total_heap += static_cast<double>(u.heap_entries());
  });
  est.selectivity =
      total_heap > 0 ? std::min(1.0, est.heap_entries / total_heap) : 0.0;
  return est;
}

double FracturedAccessPath::EstimateSecondaryMatches(int column,
                                                     std::string_view value,
                                                     double qt) const {
  double n = 0.0;
  table_->ForEachFractureShared([&](const core::Upi& u) {
    n += u.EstimateSecondaryMatches(column, value, qt);
  });
  return n;
}

double FracturedAccessPath::SecondaryAvgPointers(int column) const {
  double weighted = 0.0, entries = 0.0;
  table_->ForEachFractureShared([&](const core::Upi& u) {
    core::SecondaryIndex* sec = u.secondary(column);
    if (sec == nullptr) return;
    double n = static_cast<double>(sec->num_entries());
    weighted += sec->avg_pointers() * n;
    entries += n;
  });
  return entries > 0 ? weighted / entries : 1.0;
}

double FracturedAccessPath::EstimateTopKThreshold(std::string_view value,
                                                  size_t k) const {
  // Combined k-th threshold across fractures: walk the shared bucket grid
  // from the top, accumulating every fracture's expected entries per bucket.
  int nb = 0;
  table_->ForEachFractureShared([&](const core::Upi& u) {
    nb = std::max(nb, u.prob_histogram().num_buckets());
  });
  if (nb == 0) return 0.0;
  double acc = 0.0;
  for (int b = nb - 1; b >= 0; --b) {
    double lo = static_cast<double>(b) / nb;
    double hi = static_cast<double>(b + 1) / nb + (b == nb - 1 ? 1e-9 : 0.0);
    table_->ForEachFractureShared([&](const core::Upi& u) {
      acc += u.prob_histogram().CountFirst(value, lo, hi) +
             u.prob_histogram().CountRest(value, lo, hi);
    });
    if (acc >= static_cast<double>(k)) return lo;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// UnclusteredAccessPath
// ---------------------------------------------------------------------------

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
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
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
