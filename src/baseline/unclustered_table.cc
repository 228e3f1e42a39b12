#include "baseline/unclustered_table.h"

#include <algorithm>

namespace upi::baseline {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

UnclusteredTable::UnclusteredTable(storage::DbEnv* env, std::string name,
                                   catalog::Schema schema, uint32_t page_size)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      page_size_(page_size) {
  heap_pagefile_ = env_->CreateFile(name_ + ".heap", page_size_);
  heap_ = std::make_unique<storage::HeapFile>(env_->MakePager(heap_pagefile_));
}

Status UnclusteredTable::AddPiiColumn(int column) {
  if (column < 0 || static_cast<size_t>(column) >= schema_.num_columns() ||
      schema_.column(column).type != ValueType::kDiscrete) {
    return Status::InvalidArgument("PII requires a discrete column");
  }
  if (piis_.contains(column)) return Status::AlreadyExists("PII exists");
  piis_[column] = std::make_unique<PiiIndex>(
      env_, name_ + ".pii." + schema_.column(column).name, page_size_);
  return Status::OK();
}

PiiIndex* UnclusteredTable::pii(int column) const {
  auto it = piis_.find(column);
  return it == piis_.end() ? nullptr : it->second.get();
}

uint64_t UnclusteredTable::size_bytes() const {
  uint64_t total = heap_pagefile_->size_bytes();
  for (const auto& [col, p] : piis_) total += p->size_bytes();
  return total;
}

Result<storage::Rid> UnclusteredTable::RidOf(TupleId id) const {
  auto it = id_to_rid_.find(id);
  if (it == id_to_rid_.end()) return Status::NotFound("unknown TupleId");
  return it->second;
}

Status UnclusteredTable::Insert(const Tuple& tuple) {
  std::string bytes;
  tuple.Serialize(&bytes);
  UPI_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Insert(bytes));
  id_to_rid_[tuple.id()] = rid;
  for (auto& [col, p] : piis_) {
    const Value& v = tuple.Get(col);
    if (v.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : v.discrete().alternatives()) {
      UPI_RETURN_NOT_OK(
          p->Put(alt.value, tuple.existence() * alt.prob, tuple.id(), rid));
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
      UPI_RETURN_NOT_OK(
          p->Remove(alt.value, tuple.existence() * alt.prob, tuple.id()));
    }
  }
  UPI_RETURN_NOT_OK(heap_->Delete(rid));
  id_to_rid_.erase(id);
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<UnclusteredTable>> UnclusteredTable::Build(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    std::vector<int> pii_columns, const std::vector<Tuple>& tuples,
    uint32_t page_size) {
  // Checked before the constructor creates the heap file, so a rejected
  // build leaves no file behind and a retry under the same name succeeds.
  UPI_RETURN_NOT_OK(core::Upi::CheckSecondaryColumns(schema, pii_columns));
  UPI_RETURN_NOT_OK(core::CheckDistinctIds(tuples));
  auto table = std::make_unique<UnclusteredTable>(env, std::move(name),
                                                  std::move(schema), page_size);
  // Sequential append of the heap.
  std::string bytes;
  for (const Tuple& t : tuples) {
    bytes.clear();
    t.Serialize(&bytes);
    UPI_ASSIGN_OR_RETURN(storage::Rid rid, table->heap_->Insert(bytes));
    table->id_to_rid_[t.id()] = rid;
  }
  // Bulk-load each PII index in key order.
  for (int col : pii_columns) {
    struct E {
      std::string key;
      std::string value;
      double conf;
      TupleId id;
      storage::Rid rid;
    };
    std::vector<E> entries;
    for (const Tuple& t : tuples) {
      const Value& v = t.Get(col);
      if (v.type() != ValueType::kDiscrete) continue;
      storage::Rid rid = table->id_to_rid_[t.id()];
      for (const auto& alt : v.discrete().alternatives()) {
        double conf = t.existence() * alt.prob;
        entries.push_back(
            {core::EncodeUpiKey(alt.value, conf, t.id()), alt.value, conf,
             t.id(), rid});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const E& a, const E& b) { return a.key < b.key; });
    PiiIndex::Builder builder(
        env, table->name_ + ".pii." + table->schema_.column(col).name,
        page_size);
    for (const E& e : entries) {
      UPI_RETURN_NOT_OK(builder.Add(e.value, e.conf, e.id, e.rid));
    }
    UPI_ASSIGN_OR_RETURN(table->piis_[col], builder.Finish());
  }
  // The heap went through the pool; the PII indexes were bulk-built straight
  // to the device. Flushing only the heap leaves other tables' pages alone.
  env->pool()->FlushFile(table->heap_->pager()->file());
  return table;
}

Status UnclusteredTable::CollectPiiMatches(
    int column, std::string_view value, double qt,
    std::vector<PiiIndex::Entry>* out) const {
  PiiIndex* p = pii(column);
  if (p == nullptr) return Status::InvalidArgument("no PII index on column");
  if (charge_open_per_query) p->ChargeOpen();
  UPI_RETURN_NOT_OK(p->Collect(value, qt, out));
  // Bitmap-scan protocol: sort pointers in heap order before fetching.
  std::sort(out->begin(), out->end(),
            [](const PiiIndex::Entry& a, const PiiIndex::Entry& b) {
              return a.rid < b.rid;
            });
  if (charge_open_per_query) heap_pagefile_->ChargeOpen();
  return Status::OK();
}

Status UnclusteredTable::FetchMatch(const PiiIndex::Entry& entry,
                                    core::PtqMatch* out) const {
  std::string bytes;
  UPI_RETURN_NOT_OK(heap_->Read(entry.rid, &bytes));
  out->id = entry.key.id;
  out->confidence = entry.key.prob;
  UPI_ASSIGN_OR_RETURN(out->tuple, Tuple::Deserialize(bytes));
  return Status::OK();
}

Status UnclusteredTable::QueryPii(int column, std::string_view value, double qt,
                                  std::vector<core::PtqMatch>* out) const {
  std::vector<PiiIndex::Entry> entries;
  UPI_RETURN_NOT_OK(CollectPiiMatches(column, value, qt, &entries));
  for (const auto& e : entries) {
    core::PtqMatch m;
    UPI_RETURN_NOT_OK(FetchMatch(e, &m));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

Status UnclusteredTable::QueryTopK(int column, std::string_view value, size_t k,
                                   std::vector<core::PtqMatch>* out) const {
  PiiIndex* p = pii(column);
  if (p == nullptr) return Status::InvalidArgument("no PII index on column");
  if (charge_open_per_query) p->ChargeOpen();
  std::vector<PiiIndex::Entry> entries;
  UPI_RETURN_NOT_OK(p->Collect(value, 0.0, &entries, k));
  if (charge_open_per_query) heap_pagefile_->ChargeOpen();
  std::string bytes;
  for (const auto& e : entries) {
    UPI_RETURN_NOT_OK(heap_->Read(e.rid, &bytes));
    core::PtqMatch m;
    m.id = e.key.id;
    m.confidence = e.key.prob;
    UPI_ASSIGN_OR_RETURN(m.tuple, Tuple::Deserialize(bytes));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

}  // namespace upi::baseline
