#include "core/continuous_upi.h"

#include <algorithm>
#include <unordered_map>

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;
using prob::Point;
using rtree::EncodeLeafHeapKey;
using rtree::ObjectEntry;

ContinuousUpi::ContinuousUpi(storage::DbEnv* env, std::string name,
                             catalog::Schema schema, ContinuousUpiOptions options)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options) {
  rtree_file_ = env_->CreateFile(name_ + ".rtree", options_.rtree_page_size);
  rtree_ = std::make_unique<rtree::RTree>(
      env_->MakePager(rtree_file_),
      rtree::RTreeOptions{options_.rtree_page_size, 0.9}, &locator_);
  heap_file_ = env_->CreateFile(name_ + ".heap", options_.heap_page_size);
  heap_ = std::make_unique<btree::BTree>(env_->MakePager(heap_file_));
}

Status ContinuousUpi::AddSecondaryColumn(int column) {
  if (column < 0 || static_cast<size_t>(column) >= schema_.num_columns() ||
      schema_.column(column).type != ValueType::kDiscrete) {
    return Status::InvalidArgument("secondary index requires a discrete column");
  }
  if (secondaries_.contains(column)) {
    return Status::AlreadyExists("secondary index already declared");
  }
  ContinuousSecondary sec;
  sec.file = env_->CreateFile(name_ + ".sec." + schema_.column(column).name,
                              options_.secondary_page_size);
  sec.tree = std::make_unique<btree::BTree>(env_->MakePager(sec.file));
  secondaries_[column] = std::move(sec);
  return Status::OK();
}

rtree::ObjectEntry ContinuousUpi::MakeEntry(const Tuple& tuple) const {
  const prob::ConstrainedGaussian2D& g =
      tuple.Get(options_.location_column).gaussian();
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
  for (const auto& [col, sec] : secondaries_) total += sec.tree->size_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ContinuousUpi>> ContinuousUpi::Build(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    ContinuousUpiOptions options, std::vector<int> secondary_columns,
    const std::vector<Tuple>& tuples) {
  // Every input is checked before the first file exists (the constructor
  // creates two), so a rejected build leaves no file behind and a retry
  // under the same name succeeds. The secondary entries are staged here:
  // each is checked against a secondary page, its value sized by a heap key
  // of the same length as the one the R-Tree placement gives its tuple.
  UPI_RETURN_NOT_OK(Upi::CheckSecondaryColumns(schema, secondary_columns));
  UPI_RETURN_NOT_OK(CheckDistinctIds(tuples));
  const int loc = options.location_column;
  // Per secondary column: (value, confidence desc, id) keys and their ids.
  std::vector<std::vector<std::pair<std::string, TupleId>>> sec_entries(
      secondary_columns.size());
  std::string bytes;
  for (const Tuple& t : tuples) {
    if (loc < 0 || static_cast<size_t>(loc) >= t.values().size() ||
        t.Get(loc).type() != ValueType::kGaussian2D) {
      return Status::InvalidArgument("location column must be Gaussian2D");
    }
    const std::string heap_key = EncodeLeafHeapKey(0, t.id());
    bytes.clear();
    t.Serialize(&bytes);
    if (btree::kNodeHeaderSize + btree::Node::LeafEntrySize(heap_key, bytes) >
        options.heap_page_size) {
      return Status::InvalidArgument("tuple " + std::to_string(t.id()) +
                                     " does not fit a heap page");
    }
    for (size_t c = 0; c < secondary_columns.size(); ++c) {
      const auto col = static_cast<size_t>(secondary_columns[c]);
      if (col >= t.values().size() ||
          t.Get(col).type() != ValueType::kDiscrete) {
        return Status::InvalidArgument(
            "tuple " + std::to_string(t.id()) +
            " has no discrete value in a secondary column");
      }
      for (const auto& alt : t.Get(col).discrete().alternatives()) {
        std::string key =
            EncodeUpiKey(alt.value, t.existence() * alt.prob, t.id());
        if (btree::kNodeHeaderSize +
                btree::Node::LeafEntrySize(key, heap_key) >
            options.secondary_page_size) {
          return Status::InvalidArgument(
              "a secondary entry of tuple " + std::to_string(t.id()) +
              " does not fit a secondary page");
        }
        sec_entries[c].emplace_back(std::move(key), t.id());
      }
    }
  }

  auto upi = std::make_unique<ContinuousUpi>(env, std::move(name),
                                             std::move(schema), options);
  // Every file of this UPI, the constructor's two included: the build ends
  // by flushing them.
  std::vector<storage::PageFile*> files = {upi->rtree_file_, upi->heap_file_};
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
  {
    storage::PageFile* file = env->CreateFile(
        upi->name_ + ".rtree.built", options.rtree_page_size);
    files.push_back(file);
    UPI_ASSIGN_OR_RETURN(
        rtree::RTree built,
        rtree::RTree::BulkBuild(
            env->MakePager(file),
            rtree::RTreeOptions{options.rtree_page_size, 0.9}, &upi->locator_,
            std::move(entries),
            [&](uint64_t label, const ObjectEntry& e) -> Status {
              placements.push_back({EncodeLeafHeapKey(label, e.id), e.id});
              return Status::OK();
            }));
    upi->rtree_file_ = file;
    upi->rtree_ = std::make_unique<rtree::RTree>(std::move(built));
  }

  // Heap in label order: physically sequential 64 KB pages.
  std::sort(placements.begin(), placements.end());
  std::unordered_map<TupleId, std::string> heap_key_of;
  heap_key_of.reserve(placements.size());
  {
    storage::PageFile* file =
        env->CreateFile(upi->name_ + ".heap.built", options.heap_page_size);
    files.push_back(file);
    btree::BTreeBuilder builder(env->MakePager(file));
    for (const auto& [key, id] : placements) {
      bytes.clear();
      by_id[id]->Serialize(&bytes);
      UPI_RETURN_NOT_OK(builder.Add(key, bytes));
      heap_key_of[id] = key;
    }
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    upi->heap_file_ = file;
    upi->heap_ = std::make_unique<btree::BTree>(std::move(tree));
  }

  // Secondary indexes: (value, confidence desc, id) -> heap key.
  for (size_t c = 0; c < secondary_columns.size(); ++c) {
    const int col = secondary_columns[c];
    std::sort(sec_entries[c].begin(), sec_entries[c].end());
    ContinuousSecondary sec;
    sec.file = env->CreateFile(
        upi->name_ + ".sec." + upi->schema_.column(col).name + ".built",
        options.secondary_page_size);
    files.push_back(sec.file);
    btree::BTreeBuilder builder(env->MakePager(sec.file));
    for (const auto& [key, id] : sec_entries[c]) {
      UPI_RETURN_NOT_OK(builder.Add(key, heap_key_of[id]));
    }
    sec_entries[c] = {};
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    sec.tree = std::make_unique<btree::BTree>(std::move(tree));
    upi->secondaries_[col] = std::move(sec);
  }
  // The constructor's placeholder roots and the R-Tree went through the
  // pool. Only this UPI's files are flushed, so other tables' pages stay in
  // the pool, and in the order a pool-wide flush wrote them (file name, then
  // page), so the device sees the same writes.
  std::sort(files.begin(), files.end(),
            [](const storage::PageFile* a, const storage::PageFile* b) {
              return a->name() < b->name();
            });
  for (storage::PageFile* file : files) env->pool()->FlushFile(file);
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
    for (auto& [col, sec] : secondaries_) {
      for (const auto& alt : tuple.Get(col).discrete().alternatives()) {
        UPI_RETURN_NOT_OK(
            sec.tree
                ->Put(EncodeUpiKey(alt.value, tuple.existence() * alt.prob, id),
                      new_key)
                .status());
      }
    }
  }
  return Status::OK();
}

Status ContinuousUpi::Insert(const Tuple& tuple) {
  if (tuple.Get(options_.location_column).type() != ValueType::kGaussian2D) {
    return Status::InvalidArgument("location column must be Gaussian2D");
  }
  uint64_t label = 0;
  UPI_RETURN_NOT_OK(rtree_->Insert(
      MakeEntry(tuple), &label,
      [this](TupleId id, uint64_t from, uint64_t to) {
        return MoveHeapTuple(id, from, to);
      }));
  std::string key = EncodeLeafHeapKey(label, tuple.id());
  std::string bytes;
  tuple.Serialize(&bytes);
  UPI_RETURN_NOT_OK(heap_->Put(key, bytes).status());
  for (auto& [col, sec] : secondaries_) {
    for (const auto& alt : tuple.Get(col).discrete().alternatives()) {
      UPI_RETURN_NOT_OK(
          sec.tree
              ->Put(EncodeUpiKey(alt.value, tuple.existence() * alt.prob,
                                 tuple.id()),
                    key)
              .status());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status ContinuousUpi::FetchByHeapKey(const std::string& heap_key,
                                     Tuple* out) const {
  UPI_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(heap_key));
  UPI_ASSIGN_OR_RETURN(*out, Tuple::Deserialize(bytes));
  return Status::OK();
}

Status ContinuousUpi::QueryRange(Point center, double radius, double qt,
                                 std::vector<PtqMatch>* out) const {
  if (options_.charge_open_per_query) {
    rtree_->ChargeOpen();
    heap_file_->ChargeOpen();
  }
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
  auto it = secondaries_.find(column);
  if (it == secondaries_.end()) {
    return Status::InvalidArgument("no secondary index on column");
  }
  if (options_.charge_open_per_query) {
    it->second.file->ChargeOpen();
    heap_file_->ChargeOpen();
  }
  struct Hit {
    std::string heap_key;
    TupleId id;
    double conf;
  };
  std::vector<Hit> hits;
  std::string prefix = UpiKeyPrefix(value);
  for (btree::Cursor c = it->second.tree->Seek(prefix); c.Valid(); c.Next()) {
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
