#include "core/upi.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

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

Upi::Upi(storage::DbEnv* env, std::string name, catalog::Schema schema,
         UpiOptions options)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options) {
  heap_file_ = env_->CreateFile(name_ + ".heap", options_.page_size);
  heap_ = std::make_unique<btree::BTree>(env_->MakePager(heap_file_));
  cutoff_ = std::make_unique<CutoffIndex>(env_, name_ + ".cutoff",
                                          options_.page_size);
  placeholders_ = {heap_file_, cutoff_->file()};
}

void Upi::Release(std::unique_ptr<Upi> upi) {
  storage::DbEnv* env = upi->env_;
  std::vector<storage::PageFile*> files = {upi->heap_file_,
                                           upi->cutoff_->file()};
  for (const auto& [col, sec] : upi->secondaries_) files.push_back(sec->file());
  // Build and a merge replace the placeholders; an unbuilt UPI still uses them.
  for (storage::PageFile* file : upi->placeholders_) {
    if (std::find(files.begin(), files.end(), file) == files.end()) {
      files.push_back(file);
    }
  }
  upi.reset();  // its trees hold pagers onto the files
  for (storage::PageFile* file : files) env->DropFile(file);
}

Status Upi::AddSecondaryColumn(int column) {
  if (column < 0 || static_cast<size_t>(column) >= schema_.num_columns()) {
    return Status::InvalidArgument("secondary column out of range");
  }
  if (schema_.column(column).type != ValueType::kDiscrete) {
    return Status::InvalidArgument("secondary index requires a discrete column");
  }
  if (secondaries_.contains(column)) {
    return Status::AlreadyExists("secondary index already declared");
  }
  secondaries_[column] = std::make_unique<SecondaryIndex>(
      env_, name_ + ".sec." + schema_.column(column).name, options_.page_size,
      options_.max_secondary_pointers);
  sec_histograms_.emplace(column, histogram::ProbHistogram{});
  return Status::OK();
}

SecondaryIndex* Upi::secondary(int column) const {
  auto it = secondaries_.find(column);
  return it == secondaries_.end() ? nullptr : it->second.get();
}

const histogram::ProbHistogram* Upi::secondary_histogram(int column) const {
  auto it = sec_histograms_.find(column);
  return it == sec_histograms_.end() ? nullptr : &it->second;
}

double Upi::EstimateSecondaryMatches(int column, std::string_view value,
                                     double qt) const {
  const histogram::ProbHistogram* hist = secondary_histogram(column);
  if (hist == nullptr) return 0.0;
  return hist->CountRest(value, qt, 1.0 + 1e-9);
}

histogram::PtqEstimate Upi::EstimatePtq(std::string_view value, double qt) const {
  histogram::SelectivityEstimator est(&histogram_);
  return est.EstimatePtq(value, qt, options_.cutoff);
}

uint64_t Upi::size_bytes() const {
  uint64_t total = heap_->size_bytes() + cutoff_->size_bytes();
  for (const auto& [col, sec] : secondaries_) total += sec->size_bytes();
  return total;
}

Upi::AltPartition Upi::PartitionAlternatives(const Tuple& tuple) const {
  AltPartition part;
  const auto& dist = tuple.Get(options_.cluster_column).discrete();
  bool first = true;
  for (const auto& alt : dist.alternatives()) {
    double combined = tuple.existence() * alt.prob;
    // Algorithm 1: first alternative OR probability >= C goes to the heap.
    if (first || combined >= options_.cutoff) {
      part.heap_alts.push_back(SecondaryPointer{alt.value, combined});
    } else {
      part.cutoff_alts.push_back(SecondaryPointer{alt.value, combined});
    }
    first = false;
  }
  return part;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status Upi::Insert(const Tuple& tuple) {
  const Value& cv = tuple.Get(options_.cluster_column);
  if (cv.type() != ValueType::kDiscrete) {
    return Status::InvalidArgument("clustered column must be discrete");
  }
  if (cv.discrete().empty()) {
    return Status::InvalidArgument("clustered attribute has no alternatives");
  }
  AltPartition part = PartitionAlternatives(tuple);
  std::string tuple_bytes;
  tuple.Serialize(&tuple_bytes);
  std::string first_key =
      EncodeUpiKey(part.heap_alts[0].attr, part.heap_alts[0].prob, tuple.id());
  for (size_t i = 0; i < part.heap_alts.size(); ++i) {
    const auto& alt = part.heap_alts[i];
    UPI_RETURN_NOT_OK(
        heap_->Put(EncodeUpiKey(alt.attr, alt.prob, tuple.id()), tuple_bytes)
            .status());
    histogram_.Add(alt.attr, alt.prob, /*is_first=*/i == 0);
  }
  for (const auto& alt : part.cutoff_alts) {
    UPI_RETURN_NOT_OK(cutoff_->Add(alt.attr, alt.prob, tuple.id(), first_key));
    histogram_.Add(alt.attr, alt.prob, /*is_first=*/false);
  }
  UPI_RETURN_NOT_OK(InsertSecondaryEntries(tuple, part));
  ++num_tuples_;
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Upi::Delete(const Tuple& tuple) {
  AltPartition part = PartitionAlternatives(tuple);
  for (size_t i = 0; i < part.heap_alts.size(); ++i) {
    const auto& alt = part.heap_alts[i];
    UPI_RETURN_NOT_OK(heap_->Delete(EncodeUpiKey(alt.attr, alt.prob, tuple.id())));
    histogram_.Remove(alt.attr, alt.prob, /*is_first=*/i == 0);
  }
  for (const auto& alt : part.cutoff_alts) {
    UPI_RETURN_NOT_OK(cutoff_->Remove(alt.attr, alt.prob, tuple.id()));
    histogram_.Remove(alt.attr, alt.prob, /*is_first=*/false);
  }
  UPI_RETURN_NOT_OK(RemoveSecondaryEntries(tuple));
  --num_tuples_;
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Upi::InsertSecondaryEntries(const Tuple& tuple, const AltPartition& part) {
  for (auto& [col, sec] : secondaries_) {
    const Value& sv = tuple.Get(col);
    if (sv.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : sv.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(sec->Put(alt.value, conf, tuple.id(), part.heap_alts,
                                 !part.cutoff_alts.empty()));
      sec_histograms_[col].Add(alt.value, conf, /*is_first=*/false);
    }
  }
  return Status::OK();
}

Status Upi::RemoveSecondaryEntries(const Tuple& tuple) {
  for (auto& [col, sec] : secondaries_) {
    const Value& sv = tuple.Get(col);
    if (sv.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : sv.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(sec->Remove(alt.value, conf, tuple.id()));
      sec_histograms_[col].Remove(alt.value, conf, /*is_first=*/false);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk build
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Upi>> Upi::Build(storage::DbEnv* env, std::string name,
                                        catalog::Schema schema, UpiOptions options,
                                        std::vector<int> secondary_columns,
                                        const std::vector<Tuple>& tuples) {
  auto upi = std::make_unique<Upi>(env, std::move(name), std::move(schema),
                                   options);
  // Re-create heap & cutoff via streaming builders instead of the empty
  // structures the constructor made. The empty placeholder files (one page
  // each) stay in the environment until the UPI is released.
  struct HeapEntry {
    std::string key;
    const Tuple* tuple;
  };
  struct CutoffEntry {
    std::string key;  // encoded (attr, prob, id)
    std::string first_key;
    std::string attr;
    double prob;
    TupleId id;
  };
  std::vector<HeapEntry> heap_entries;
  std::vector<CutoffEntry> cutoff_entries;
  // Each tuple is partitioned once; the secondary phase reuses the result
  // (every secondary entry records its tuple's heap pointers).
  std::vector<AltPartition> parts;
  if (!secondary_columns.empty()) parts.reserve(tuples.size());

  for (const Tuple& t : tuples) {
    const Value& cv = t.Get(options.cluster_column);
    if (cv.type() != ValueType::kDiscrete || cv.discrete().empty()) {
      return Status::InvalidArgument("tuple " + std::to_string(t.id()) +
                                     " lacks clustered alternatives");
    }
    AltPartition part = upi->PartitionAlternatives(t);
    std::string first_key =
        EncodeUpiKey(part.heap_alts[0].attr, part.heap_alts[0].prob, t.id());
    for (size_t i = 0; i < part.heap_alts.size(); ++i) {
      const auto& alt = part.heap_alts[i];
      heap_entries.push_back({EncodeUpiKey(alt.attr, alt.prob, t.id()), &t});
      upi->histogram_.Add(alt.attr, alt.prob, /*is_first=*/i == 0);
    }
    for (const auto& alt : part.cutoff_alts) {
      cutoff_entries.push_back({EncodeUpiKey(alt.attr, alt.prob, t.id()),
                                first_key, alt.attr, alt.prob, t.id()});
      upi->histogram_.Add(alt.attr, alt.prob, /*is_first=*/false);
    }
    if (!secondary_columns.empty()) parts.push_back(std::move(part));
  }

  std::sort(heap_entries.begin(), heap_entries.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return a.key < b.key; });
  {
    storage::PageFile* file =
        env->CreateFile(upi->name_ + ".heap.built", options.page_size);
    btree::BTreeBuilder builder(env->MakePager(file));
    std::string tuple_bytes;
    for (const HeapEntry& e : heap_entries) {
      tuple_bytes.clear();
      e.tuple->Serialize(&tuple_bytes);
      UPI_RETURN_NOT_OK(builder.Add(e.key, tuple_bytes));
    }
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    upi->heap_file_ = file;
    upi->heap_ = std::make_unique<btree::BTree>(std::move(tree));
  }

  std::sort(cutoff_entries.begin(), cutoff_entries.end(),
            [](const CutoffEntry& a, const CutoffEntry& b) { return a.key < b.key; });
  {
    CutoffIndex::Builder builder(env, upi->name_ + ".cutoff.built",
                                 options.page_size);
    for (const CutoffEntry& e : cutoff_entries) {
      UPI_RETURN_NOT_OK(builder.Add(e.attr, e.prob, e.id, e.first_key));
    }
    UPI_ASSIGN_OR_RETURN(upi->cutoff_, builder.Finish());
  }
  // Release the heap and cutoff staging before the secondary phase, so the
  // cached partitions never raise peak memory.
  heap_entries = std::vector<HeapEntry>();
  cutoff_entries = std::vector<CutoffEntry>();

  for (int col : secondary_columns) {
    if (col < 0 || static_cast<size_t>(col) >= upi->schema_.num_columns() ||
        upi->schema_.column(col).type != ValueType::kDiscrete) {
      return Status::InvalidArgument("bad secondary column");
    }
    struct SecEntry {
      std::string key;
      size_t tuple;  // index into `tuples` and `parts`
      double conf;
      std::string value;
    };
    std::vector<SecEntry> entries;
    histogram::ProbHistogram& sec_hist = upi->sec_histograms_[col];
    for (size_t i = 0; i < tuples.size(); ++i) {
      const Tuple& t = tuples[i];
      const Value& sv = t.Get(col);
      if (sv.type() != ValueType::kDiscrete) continue;
      for (const auto& alt : sv.discrete().alternatives()) {
        double conf = t.existence() * alt.prob;
        entries.push_back(
            {EncodeUpiKey(alt.value, conf, t.id()), i, conf, alt.value});
        sec_hist.Add(alt.value, conf, /*is_first=*/false);
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const SecEntry& a, const SecEntry& b) { return a.key < b.key; });
    SecondaryIndex::Builder builder(
        env, upi->name_ + ".sec." + upi->schema_.column(col).name + ".built",
        options.page_size, options.max_secondary_pointers);
    for (const SecEntry& e : entries) {
      const AltPartition& part = parts[e.tuple];
      UPI_RETURN_NOT_OK(builder.Add(e.value, e.conf, tuples[e.tuple].id(),
                                    part.heap_alts, !part.cutoff_alts.empty()));
    }
    UPI_ASSIGN_OR_RETURN(upi->secondaries_[col], builder.Finish());
  }

  upi->num_tuples_ = tuples.size();
  env->pool()->FlushAll();
  return upi;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status Upi::FetchHeapTuple(const std::string& heap_key, Tuple* out) const {
  UPI_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(heap_key));
  UPI_ASSIGN_OR_RETURN(*out, Tuple::Deserialize(bytes));
  return Status::OK();
}

Status Upi::QueryPtq(std::string_view value, double qt,
                     std::vector<PtqMatch>* out) const {
  // Algorithm 2 lives in UpiPtqCursor; the materialized query is its fully
  // drained stream (same access sequence, one implementation).
  UpiPtqCursor c = OpenPtqCursor(value, qt);
  PtqMatch m;
  while (c.Next(&m)) out->push_back(std::move(m));
  return c.status();
}

Status Upi::QueryTopK(std::string_view value, size_t k,
                      std::vector<PtqMatch>* out) const {
  // The k bound is the consumer stopping: the cursor's cutoff phase runs
  // only when the heap ran short of k.
  UpiPtqCursor c = OpenTopKCursor(value);
  PtqMatch m;
  while (out->size() < k && c.Next(&m)) out->push_back(std::move(m));
  return c.status();
}

Status Upi::QueryBySecondary(int column, std::string_view value, double qt,
                             SecondaryAccessMode mode,
                             std::vector<PtqMatch>* out) const {
  SecondaryIndex* sec = secondary(column);
  if (sec == nullptr) return Status::InvalidArgument("no secondary index");
  // The secondary index's file pays Costinit only per query: the paper's
  // Cost_frac prices a fracture's open as its heap's, opened below.
  if (options_.charge_open_per_query) sec->ChargeOpen();
  std::vector<SecondaryEntry> entries;
  UPI_RETURN_NOT_OK(sec->Collect(value, qt, &entries));

  // Choose one heap pointer per entry.
  struct Chosen {
    std::string heap_key;
    const SecondaryEntry* entry;
  };
  std::vector<Chosen> chosen;
  chosen.reserve(entries.size());

  if (mode == SecondaryAccessMode::kFirstPointer) {
    for (const auto& e : entries) {
      chosen.push_back({EncodeUpiKey(e.pointers[0].attr, e.pointers[0].prob,
                                     e.key.id),
                        &e});
    }
  } else {
    // Algorithm 3: first pass pins the single-pointer entries' regions; the
    // second pass prefers pointers into regions already being read.
    std::set<std::string> regions;
    for (const auto& e : entries) {
      if (e.pointers.size() == 1) regions.insert(e.pointers[0].attr);
    }
    for (const auto& e : entries) {
      const SecondaryPointer* pick = nullptr;
      if (e.pointers.size() == 1) {
        pick = &e.pointers[0];
      } else {
        for (const auto& p : e.pointers) {
          if (regions.contains(p.attr)) {
            pick = &p;
            break;
          }
        }
        if (pick == nullptr) {
          pick = &e.pointers[0];
          regions.insert(pick->attr);
        }
      }
      chosen.push_back({EncodeUpiKey(pick->attr, pick->prob, e.key.id), &e});
    }
  }

  // Bitmap-scan style ordered fetch from the heap.
  std::sort(chosen.begin(), chosen.end(),
            [](const Chosen& a, const Chosen& b) { return a.heap_key < b.heap_key; });
  OpenFile(heap_file_);
  for (const auto& ch : chosen) {
    PtqMatch m;
    m.id = ch.entry->key.id;
    m.confidence = ch.entry->key.prob;
    UPI_RETURN_NOT_OK(FetchHeapTuple(ch.heap_key, &m.tuple));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

void Upi::ScanHeap(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  OpenFile(heap_file_);
  for (btree::Cursor c = heap_->SeekToFirst(); c.Valid(); c.Next()) {
    fn(c.key(), c.value());
  }
}

// ---------------------------------------------------------------------------
// Streaming cursor (pull-based Algorithm 2)
// ---------------------------------------------------------------------------

void Upi::OpenFile(storage::PageFile* file) const {
  if (options_.charge_open_per_query) {
    file->ChargeOpen();
  } else if (fracture_) {
    file->OpenIfClosed();
  }
}

UpiPtqCursor Upi::OpenPtqCursor(std::string_view value, double qt) const {
  return UpiPtqCursor(this, value, qt, /*topk_mode=*/false);
}

UpiPtqCursor Upi::OpenTopKCursor(std::string_view value) const {
  return UpiPtqCursor(this, value, /*qt=*/0.0, /*topk_mode=*/true);
}

UpiPtqCursor::UpiPtqCursor(const Upi* upi, std::string_view value, double qt,
                           bool topk_mode)
    : upi_(upi),
      value_(value),
      prefix_(UpiKeyPrefix(value)),
      qt_(qt),
      topk_mode_(topk_mode) {
  // Same opening sequence as QueryPtq/QueryTopK: open the heap file, then
  // one index descent to the start of the value's clustered region.
  upi_->OpenFile(upi_->heap_file_);
  heap_ = upi_->heap_->Seek(prefix_);
}

bool UpiPtqCursor::Next(PtqMatch* out) {
  for (;;) {
    switch (phase_) {
      case Phase::kHeap:
        if (NextHeap(out)) return true;
        if (phase_ == Phase::kDone) return false;
        break;  // moved to the cutoff phase; retry there
      case Phase::kCutoff:
        return NextCutoff(out);
      case Phase::kDone:
        return false;
    }
  }
}

bool UpiPtqCursor::NextHeap(PtqMatch* out) {
  if (!heap_.Valid() ||
      heap_.key().substr(0, prefix_.size()) != prefix_) {
    EnterCutoffPhase();
    return false;
  }
  UpiKey key;
  Status st = DecodeUpiKey(heap_.key(), &key);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return false;
  }
  if (!topk_mode_ && key.prob < qt_) {
    // Probability-descending order: nothing further in the heap qualifies.
    EnterCutoffPhase();
    return false;
  }
  auto tuple = catalog::Tuple::Deserialize(heap_.value());
  if (!tuple.ok()) {
    status_ = tuple.status();
    phase_ = Phase::kDone;
    return false;
  }
  out->id = key.id;
  out->confidence = key.prob;
  out->tuple = std::move(tuple).value();
  heap_.Next();  // eager advance, like the QueryPtq for-loop
  return true;
}

void UpiPtqCursor::EnterCutoffPhase() {
  // PTQ consults the cutoff index only when QT < C (Algorithm 2); top-k
  // consults it whenever the heap ran short of k and it has entries —
  // both conditions arise here only because the consumer kept pulling.
  bool consult = topk_mode_ ? upi_->cutoff_->num_entries() > 0
                            : qt_ < upi_->options_.cutoff;
  if (!consult) {
    phase_ = Phase::kDone;
    return;
  }
  upi_->OpenFile(upi_->cutoff_->file());
  Status st = upi_->cutoff_->CollectPointers(value_, topk_mode_ ? 0.0 : qt_,
                                             &pointers_);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return;
  }
  if (!topk_mode_) {
    // Bitmap-scan style: fetch in heap order (QueryTopK fetches in collected
    // order, matching the materialized path).
    std::sort(pointers_.begin(), pointers_.end(),
              [](const CutoffIndex::PointerEntry& a,
                 const CutoffIndex::PointerEntry& b) {
                return a.heap_key < b.heap_key;
              });
  }
  phase_ = Phase::kCutoff;
}

bool UpiPtqCursor::NextCutoff(PtqMatch* out) {
  if (ptr_idx_ >= pointers_.size()) {
    phase_ = Phase::kDone;
    return false;
  }
  const CutoffIndex::PointerEntry& p = pointers_[ptr_idx_++];
  out->id = p.entry.id;
  out->confidence = p.entry.prob;
  Status st = upi_->FetchHeapTuple(p.heap_key, &out->tuple);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return false;
  }
  return true;
}

}  // namespace upi::core
