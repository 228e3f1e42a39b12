#include "core/continuous_upi.h"

#include <algorithm>
#include <unordered_map>

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::ValueType;
using prob::Point;
using rtree::EncodeLeafHeapKey;
using rtree::ObjectEntry;

rtree::ObjectEntry ContinuousUpi::MakeEntry(const Tuple& tuple) const {
  const prob::ConstrainedGaussian2D& g =
      tuple.Get(location_column_).gaussian();
  ObjectEntry e;
  double x0, y0, x1, y1;
  g.Mbr(&x0, &y0, &x1, &y1);
  e.mbr = rtree::Rect{x0, y0, x1, y1};
  e.id = tuple.id();
  e.mean = g.mean();
  e.sigma = g.sigma();
  e.bound = g.bound_radius();
  return e;
}

uint64_t ContinuousUpi::size_bytes() const {
  uint64_t total = rtree_->size_bytes() + heap_->size_bytes();
  for (const auto& sec : secondaries_) total += sec->size_bytes();
  return total;
}

Status ContinuousUpi::CheckTuple(
    const Tuple& tuple, int location_column,
    const std::vector<int>& secondary_columns, std::string* bytes,
    std::vector<std::vector<std::string>>* secondary_keys) {
  if (location_column < 0 ||
      static_cast<size_t>(location_column) >= tuple.values().size() ||
      tuple.Get(location_column).type() != ValueType::kGaussian2D) {
    return Status::InvalidArgument("location column must be Gaussian2D");
  }
  // A heap key has the same length wherever the R-Tree places the tuple; it
  // is the value of every secondary entry.
  const std::string heap_key = EncodeLeafHeapKey(0, tuple.id());
  bytes->clear();
  tuple.Serialize(bytes);
  if (btree::kNodeHeaderSize + btree::Node::LeafEntrySize(heap_key, *bytes) >
      kHeapPageSize) {
    return Status::InvalidArgument("tuple " + std::to_string(tuple.id()) +
                                   " does not fit a heap page");
  }
  secondary_keys->resize(secondary_columns.size());
  for (size_t c = 0; c < secondary_columns.size(); ++c) {
    std::vector<std::string>& keys = (*secondary_keys)[c];
    keys.clear();
    const auto col = static_cast<size_t>(secondary_columns[c]);
    if (col >= tuple.values().size() ||
        tuple.Get(col).type() != ValueType::kDiscrete) {
      return Status::InvalidArgument(
          "tuple " + std::to_string(tuple.id()) +
          " has no discrete value in a secondary column");
    }
    for (const auto& alt : tuple.Get(col).discrete().alternatives()) {
      keys.push_back(
          EncodeUpiKey(alt.value, tuple.existence() * alt.prob, tuple.id()));
      if (btree::kNodeHeaderSize +
              btree::Node::LeafEntrySize(keys.back(), heap_key) >
          kSecondaryPageSize) {
        return Status::InvalidArgument(
            "a secondary entry of tuple " + std::to_string(tuple.id()) +
            " does not fit a secondary page");
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ContinuousUpi>> ContinuousUpi::Build(
    storage::DbEnv* env, const std::string& name, const catalog::Schema& schema,
    int location_column, std::vector<int> secondary_columns,
    const std::vector<Tuple>& tuples) {
  // Every input is checked before the first file exists, so a rejected
  // build leaves no file behind and a retry under the same name succeeds.
  // The secondary entries are staged here: (key, id) per secondary column.
  UPI_RETURN_NOT_OK(Upi::CheckSecondaryColumns(schema, secondary_columns));
  UPI_RETURN_NOT_OK(CheckDistinctIds(tuples));
  std::vector<std::vector<std::pair<std::string, TupleId>>> sec_entries(
      secondary_columns.size());
  std::string bytes;
  std::vector<std::vector<std::string>> keys;
  for (const Tuple& t : tuples) {
    UPI_RETURN_NOT_OK(
        CheckTuple(t, location_column, secondary_columns, &bytes, &keys));
    for (size_t c = 0; c < keys.size(); ++c) {
      for (std::string& key : keys[c]) {
        sec_entries[c].emplace_back(std::move(key), t.id());
      }
    }
  }

  // Every file is created before the R-Tree's first pool write; a failure
  // from here on drops them.
  storage::NewFiles files(env);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* rtree_file,
                       files.Create(name + ".rtree", kRTreePageSize));
  UPI_ASSIGN_OR_RETURN(storage::PageFile* heap_file,
                       files.Create(name + ".heap", kHeapPageSize));
  std::vector<storage::PageFile*> sec_files;
  for (int col : secondary_columns) {
    UPI_ASSIGN_OR_RETURN(
        storage::PageFile* file,
        files.Create(name + ".sec." + schema.column(col).name,
                     kSecondaryPageSize));
    sec_files.push_back(file);
  }

  std::unique_ptr<ContinuousUpi> upi(
      new ContinuousUpi(location_column, std::move(secondary_columns)));
  std::unordered_map<TupleId, const Tuple*> by_id;
  std::vector<ObjectEntry> entries;
  entries.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    entries.push_back(upi->MakeEntry(t));
    by_id[t.id()] = &t;
  }

  // STR-build the R-Tree; record every placement's heap key.
  std::vector<std::pair<std::string, TupleId>> placements;
  placements.reserve(tuples.size());
  UPI_ASSIGN_OR_RETURN(
      rtree::RTree rtree,
      rtree::RTree::BulkBuild(
          env->MakePager(rtree_file),
          rtree::RTreeOptions{kRTreePageSize, 0.9}, &upi->locator_,
          std::move(entries),
          [&](uint64_t label, const ObjectEntry& e) -> Status {
            placements.push_back({EncodeLeafHeapKey(label, e.id), e.id});
            return Status::OK();
          }));
  upi->rtree_ = std::make_unique<rtree::RTree>(std::move(rtree));

  // Heap in label order: physically sequential 64 KB pages.
  std::sort(placements.begin(), placements.end());
  std::unordered_map<TupleId, std::string> heap_key_of;
  heap_key_of.reserve(placements.size());
  {
    btree::BTreeBuilder builder(env->MakePager(heap_file));
    for (const auto& [key, id] : placements) {
      bytes.clear();
      by_id[id]->Serialize(&bytes);
      UPI_RETURN_NOT_OK(builder.Add(key, bytes));
      heap_key_of[id] = key;
    }
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    upi->heap_ = std::make_unique<btree::BTree>(std::move(tree));
  }

  // Secondary indexes: (value, confidence desc, id) -> heap key.
  for (size_t c = 0; c < sec_entries.size(); ++c) {
    std::sort(sec_entries[c].begin(), sec_entries[c].end());
    btree::BTreeBuilder builder(env->MakePager(sec_files[c]));
    for (const auto& [key, id] : sec_entries[c]) {
      UPI_RETURN_NOT_OK(builder.Add(key, heap_key_of[id]));
    }
    sec_entries[c] = {};
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    upi->secondaries_.push_back(
        std::make_unique<btree::BTree>(std::move(tree)));
  }
  // Only the R-Tree went through the pool. Flushing only it leaves other
  // tables' pages in the pool.
  env->pool()->FlushFile(rtree_file);
  files.Keep();
  return upi;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status ContinuousUpi::MoveHeapTuple(TupleId id, uint64_t from_label,
                                    uint64_t to_label) {
  std::string old_key = EncodeLeafHeapKey(from_label, id);
  std::string new_key = EncodeLeafHeapKey(to_label, id);
  UPI_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(old_key));
  UPI_RETURN_NOT_OK(heap_->Delete(old_key));
  UPI_RETURN_NOT_OK(heap_->Put(new_key, bytes).status());
  if (!secondaries_.empty()) {
    UPI_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(bytes));
    for (size_t c = 0; c < secondaries_.size(); ++c) {
      for (const auto& alt :
           tuple.Get(secondary_columns_[c]).discrete().alternatives()) {
        UPI_RETURN_NOT_OK(
            secondaries_[c]
                ->Put(EncodeUpiKey(alt.value, tuple.existence() * alt.prob, id),
                      new_key)
                .status());
      }
    }
  }
  return Status::OK();
}

Status ContinuousUpi::Insert(const Tuple& tuple) {
  std::string bytes;
  std::vector<std::vector<std::string>> sec_keys;
  UPI_RETURN_NOT_OK(CheckTuple(tuple, location_column_, secondary_columns_,
                               &bytes, &sec_keys));
  uint64_t label = 0;
  UPI_RETURN_NOT_OK(rtree_->Insert(
      MakeEntry(tuple), &label,
      [this](TupleId id, uint64_t from, uint64_t to) {
        return MoveHeapTuple(id, from, to);
      }));
  std::string key = EncodeLeafHeapKey(label, tuple.id());
  UPI_RETURN_NOT_OK(heap_->Put(key, bytes).status());
  for (size_t c = 0; c < secondaries_.size(); ++c) {
    for (const std::string& sec_key : sec_keys[c]) {
      UPI_RETURN_NOT_OK(secondaries_[c]->Put(sec_key, key).status());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status ContinuousUpi::FetchByHeapKey(const std::string& heap_key,
                                     catalog::EncodedTuple* out) const {
  UPI_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(heap_key));
  return out->Assign(bytes);
}

Status ContinuousUpi::QueryRange(Point center, double radius, double qt,
                                 std::vector<PtqMatch>* out) const {
  // U-Tree pruning during descent: discard candidates whose appearance-
  // probability upper bound is below qt; integrate only the undecided.
  struct Hit {
    std::string heap_key;
    TupleId id;
    double prob;
  };
  std::vector<Hit> hits;
  UPI_RETURN_NOT_OK(rtree_->SearchCircle(
      center, radius, [&](const ObjectEntry& e, uint64_t label) {
        if (e.UpperBoundInCircle(center, radius) < qt) return;
        double p = e.ProbInCircle(center, radius);
        if (p >= qt) {
          hits.push_back(Hit{EncodeLeafHeapKey(label, e.id), e.id, p});
        }
      }));
  // Heap access in label order: sequential-ish over the 64 KB pages.
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.heap_key < b.heap_key; });
  for (const Hit& h : hits) {
    PtqMatch m;
    m.id = h.id;
    m.confidence = h.prob;
    UPI_RETURN_NOT_OK(FetchByHeapKey(h.heap_key, &m.tuple));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

Status ContinuousUpi::QueryBySecondary(int column, std::string_view value,
                                       double qt,
                                       std::vector<PtqMatch>* out) const {
  auto it =
      std::find(secondary_columns_.begin(), secondary_columns_.end(), column);
  if (it == secondary_columns_.end()) {
    return Status::InvalidArgument("no secondary index on column");
  }
  const btree::BTree& sec = *secondaries_[it - secondary_columns_.begin()];
  struct Hit {
    std::string heap_key;
    TupleId id;
    double conf;
  };
  std::vector<Hit> hits;
  std::string prefix = UpiKeyPrefix(value);
  for (btree::Cursor c = sec.Seek(prefix); c.Valid(); c.Next()) {
    if (c.key().substr(0, prefix.size()) != prefix) break;
    UpiKey k;
    UPI_RETURN_NOT_OK(DecodeUpiKey(c.key(), &k));
    if (k.prob < qt) break;
    hits.push_back(Hit{std::string(c.value()), k.id, k.prob});
  }
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.heap_key < b.heap_key; });
  for (const Hit& h : hits) {
    PtqMatch m;
    m.id = h.id;
    m.confidence = h.conf;
    UPI_RETURN_NOT_OK(FetchByHeapKey(h.heap_key, &m.tuple));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

}  // namespace upi::core
