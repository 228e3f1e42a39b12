#include "baseline/unclustered_table.h"

#include <algorithm>

#include "core/upi.h"

namespace upi::baseline {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

namespace {

/// Reads the tuple a PII entry points at.
Status Fetch(const storage::HeapFile& heap, const PiiIndex::Entry& entry,
             core::PtqMatch* out) {
  std::string bytes;
  UPI_RETURN_NOT_OK(heap.Read(entry.rid, &bytes));
  out->id = entry.key.id;
  out->confidence = entry.key.prob;
  return out->tuple.Assign(bytes);
}

/// OpenPii's cursor: the inverted-list entries in RID order, each tuple
/// fetched from the heap when the consumer pulls its row. A failed
/// collection is carried as the cursor's status.
class PiiProbeCursor : public core::ResultCursor {
 public:
  PiiProbeCursor(const storage::HeapFile* heap,
                 std::vector<PiiIndex::Entry> entries, Status collect_status)
      : heap_(heap), entries_(std::move(entries)) {
    status_ = std::move(collect_status);
  }

 private:
  bool Produce(core::PtqMatch* out) override {
    if (idx_ >= entries_.size()) return false;
    status_ = Fetch(*heap_, entries_[idx_++], out);
    return status_.ok();
  }

  const storage::HeapFile* heap_;
  std::vector<PiiIndex::Entry> entries_;
  size_t idx_ = 0;
};

}  // namespace

UnclusteredTable::UnclusteredTable(std::string name, catalog::Schema schema,
                                   int primary_column, storage::Pager heap)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      primary_column_(primary_column),
      heap_(std::make_unique<storage::HeapFile>(heap)) {}

PiiIndex* UnclusteredTable::pii(int column) const {
  auto it = piis_.find(column);
  return it == piis_.end() ? nullptr : it->second.get();
}

Result<storage::Rid> UnclusteredTable::RidOf(TupleId id) const {
  auto it = id_to_rid_.find(id);
  if (it == id_to_rid_.end()) return Status::NotFound("unknown TupleId");
  return it->second;
}

Status UnclusteredTable::Insert(const Tuple& tuple) {
  // A second record under a live id could never be deleted: Delete finds
  // one RID per id.
  if (id_to_rid_.contains(tuple.id())) {
    return Status::AlreadyExists("TupleId " + std::to_string(tuple.id()) +
                                 " is live");
  }
  std::string bytes;
  tuple.Serialize(&bytes);
  UPI_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Insert(bytes));
  id_to_rid_[tuple.id()] = rid;
  for (auto& [col, p] : piis_) {
    const Value& v = tuple.Get(col);
    if (v.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : v.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(p->Put(alt.value, conf, tuple.id(), rid));
      histograms_[col].Add(alt.value, conf, /*is_first=*/false);
    }
  }
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status UnclusteredTable::Delete(TupleId id) {
  UPI_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(id));
  std::string bytes;
  UPI_RETURN_NOT_OK(heap_->Read(rid, &bytes));
  UPI_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(bytes));
  for (auto& [col, p] : piis_) {
    const Value& v = tuple.Get(col);
    if (v.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : v.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(p->Remove(alt.value, conf, tuple.id()));
      histograms_[col].Remove(alt.value, conf, /*is_first=*/false);
    }
  }
  UPI_RETURN_NOT_OK(heap_->Delete(rid));
  id_to_rid_.erase(id);
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<UnclusteredTable>> UnclusteredTable::Build(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    int primary_column, std::vector<int> pii_columns,
    const std::vector<Tuple>& tuples) {
  // Every read of the table's primary attribute goes through its PII index.
  if (std::find(pii_columns.begin(), pii_columns.end(), primary_column) ==
      pii_columns.end()) {
    return Status::InvalidArgument("primary column " +
                                   std::to_string(primary_column) +
                                   " has no PII index");
  }
  return BuildTable(env, std::move(name), std::move(schema), primary_column,
                    pii_columns, tuples);
}

Result<std::unique_ptr<UnclusteredTable>> UnclusteredTable::BuildHeap(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    const std::vector<Tuple>& tuples) {
  return BuildTable(env, std::move(name), std::move(schema),
                    /*primary_column=*/-1, {}, tuples);
}

Result<std::unique_ptr<UnclusteredTable>> UnclusteredTable::BuildTable(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    int primary_column, const std::vector<int>& pii_columns,
    const std::vector<Tuple>& tuples) {
  // The whole input is checked, and every file created, before the heap's
  // first pool write; a create that fails drops the files made before it.
  // The PII entries are staged here: (key, input tuple index) per column.
  UPI_RETURN_NOT_OK(core::Upi::CheckSecondaryColumns(schema, pii_columns));
  UPI_RETURN_NOT_OK(core::CheckDistinctIds(tuples));
  std::vector<std::vector<std::pair<std::string, size_t>>> pii_entries(
      pii_columns.size());
  std::vector<histogram::ProbHistogram> histograms(pii_columns.size());
  std::string bytes;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    bytes.clear();
    t.Serialize(&bytes);
    if (bytes.size() > storage::HeapFile::MaxRecordSize(kPageSize)) {
      return Status::InvalidArgument("tuple " + std::to_string(t.id()) +
                                     " does not fit a heap page");
    }
    for (size_t c = 0; c < pii_columns.size(); ++c) {
      const Value& v = t.Get(pii_columns[c]);
      if (v.type() != ValueType::kDiscrete) continue;
      for (const auto& alt : v.discrete().alternatives()) {
        double conf = t.existence() * alt.prob;
        std::string key = core::EncodeUpiKey(alt.value, conf, t.id());
        if (!PiiIndex::Fits(key, kPageSize)) {
          return Status::InvalidArgument("a PII entry of tuple " +
                                         std::to_string(t.id()) +
                                         " does not fit a PII page");
        }
        pii_entries[c].emplace_back(std::move(key), i);
        histograms[c].Add(alt.value, conf, /*is_first=*/false);
      }
    }
  }

  storage::NewFiles files(env);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* heap_file,
                       files.Create(name + ".heap", kPageSize));
  std::vector<storage::PageFile*> pii_files;
  for (int col : pii_columns) {
    UPI_ASSIGN_OR_RETURN(
        storage::PageFile* file,
        files.Create(name + ".pii." + schema.column(col).name, kPageSize));
    pii_files.push_back(file);
  }
  auto table = std::unique_ptr<UnclusteredTable>(
      new UnclusteredTable(std::move(name), std::move(schema), primary_column,
                           env->MakePager(heap_file)));
  // Sequential append of the heap.
  std::vector<storage::Rid> rids;
  rids.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    bytes.clear();
    t.Serialize(&bytes);
    UPI_ASSIGN_OR_RETURN(storage::Rid rid, table->heap_->Insert(bytes));
    table->id_to_rid_[t.id()] = rid;
    rids.push_back(rid);
  }
  // Bulk-load each PII index in key order.
  for (size_t c = 0; c < pii_columns.size(); ++c) {
    std::sort(pii_entries[c].begin(), pii_entries[c].end());
    PiiIndex::Builder builder(env->MakePager(pii_files[c]));
    for (const auto& [key, i] : pii_entries[c]) {
      UPI_RETURN_NOT_OK(builder.Add(key, rids[i]));
    }
    pii_entries[c] = {};
    UPI_ASSIGN_OR_RETURN(table->piis_[pii_columns[c]], builder.Finish());
    table->histograms_[pii_columns[c]] = std::move(histograms[c]);
  }
  // The heap went through the pool; the PII indexes were bulk-built straight
  // to the device. Flushing only the heap leaves other tables' pages alone.
  env->pool()->FlushFile(heap_file);
  files.Keep();
  return table;
}

std::unique_ptr<core::ResultCursor> UnclusteredTable::OpenPii(
    int column, std::string_view value, double qt) const {
  std::vector<PiiIndex::Entry> entries;
  PiiIndex* p = pii(column);
  Status st = p == nullptr
                  ? Status::InvalidArgument("no PII index on column")
                  : p->Collect(value, qt, &entries);
  // Bitmap-scan protocol: sort pointers in heap order before fetching.
  std::sort(entries.begin(), entries.end(),
            [](const PiiIndex::Entry& a, const PiiIndex::Entry& b) {
              return a.rid < b.rid;
            });
  return std::make_unique<PiiProbeCursor>(heap_.get(), std::move(entries),
                                          std::move(st));
}

std::unique_ptr<core::ResultCursor> UnclusteredTable::OpenTopK(
    std::string_view value, size_t k) const {
  std::vector<core::PtqMatch> rows;
  Status st = [&]() -> Status {
    PiiIndex* p = pii(primary_column_);
    if (p == nullptr) return Status::InvalidArgument("no PII index on column");
    std::vector<PiiIndex::Entry> entries;
    UPI_RETURN_NOT_OK(p->Collect(value, 0.0, &entries, k));
    for (const auto& e : entries) {
      core::PtqMatch m;
      UPI_RETURN_NOT_OK(Fetch(*heap_, e, &m));
      rows.push_back(std::move(m));
    }
    return Status::OK();
  }();
  return std::make_unique<core::MaterializedCursor>(std::move(rows),
                                                    std::move(st));
}

std::unique_ptr<core::ResultCursor> UnclusteredTable::OpenSecondary(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode) const {
  std::vector<core::PtqMatch> rows;
  Status st = OpenPii(column, value, qt)->Drain(&rows);
  return std::make_unique<core::MaterializedCursor>(std::move(rows),
                                                    std::move(st));
}

Status UnclusteredTable::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  Status st = Status::OK();
  heap_->Scan([&](storage::Rid, std::string_view record) {
    if (!st.ok()) return false;
    st = catalog::TupleView::Validate(record);
    if (!st.ok()) return false;
    fn(catalog::TupleView(record));
    return true;
  });
  return st;
}

core::PathStats UnclusteredTable::Stats() const {
  core::PathStats s;
  const storage::PageFile* file = heap_->pager()->file();
  s.table.table_bytes = file->size_bytes();
  s.table.num_leaf_pages = heap_->num_pages();
  PiiIndex* primary = pii(primary_column_);
  s.table.btree_height = primary != nullptr ? primary->tree()->height() : 1;
  s.table.num_fractures = 1;
  s.table.page_size = file->page_size();
  s.heap_entries = heap_->live_records();
  s.num_tuples = num_tuples();
  s.seek_span_bytes = file->disk()->SeekSpan();
  auto it = histograms_.find(primary_column_);
  s.distinct_primary_values =
      it != histograms_.end()
          ? static_cast<double>(it->second.distinct_values())
          : 0.0;
  s.supports_direct_topk = primary != nullptr;
  s.clustered = false;
  return s;
}

histogram::PtqEstimate UnclusteredTable::EstimatePtq(std::string_view value,
                                                     double qt) const {
  histogram::PtqEstimate est;
  est.heap_entries = EstimateSecondaryMatches(primary_column_, value, qt);
  double total = static_cast<double>(num_tuples());
  est.selectivity = total > 0 ? std::min(1.0, est.heap_entries / total) : 0.0;
  return est;
}

double UnclusteredTable::EstimateSecondaryMatches(int column,
                                                  std::string_view value,
                                                  double qt) const {
  auto it = histograms_.find(column);
  if (it == histograms_.end()) return 0.0;
  return it->second.CountRest(value, qt, 1.0 + 1e-9);
}

double UnclusteredTable::EstimateTopKThreshold(std::string_view value,
                                               size_t k) const {
  auto it = histograms_.find(primary_column_);
  if (it == histograms_.end()) return 0.0;
  histogram::SelectivityEstimator est(&it->second);
  return est.EstimateKthThreshold(value, k);
}

}  // namespace upi::baseline
