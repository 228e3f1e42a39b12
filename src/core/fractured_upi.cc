#include "core/fractured_upi.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <tuple>

#include "common/coding.h"
#include "obs/trace.h"

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

FracturedUpi::FracturedUpi(storage::DbEnv* env, std::string name,
                           catalog::Schema schema, UpiOptions options,
                           std::vector<int> secondary_columns)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      secondary_columns_(std::move(secondary_columns)),
      m_fractures_probed_(
          env->metrics()->counter("upi_pruning_fractures_probed_total")),
      m_fractures_pruned_(
          env->metrics()->counter("upi_pruning_fractures_pruned_total")),
      m_bloom_rejects_(
          env->metrics()->counter("upi_pruning_bloom_rejects_total")) {}

FractureSummary::SkipReason FracturedUpi::WhySkip(const Fracture& f,
                                                  int column,
                                                  std::string_view value,
                                                  double qt) const {
  if (!options_.enable_pruning || f.summary == nullptr) {
    return FractureSummary::SkipReason::kNone;
  }
  return f.summary->WhySkip(column, value, qt);
}

bool FracturedUpi::Prune(const Fracture& f, int column, std::string_view value,
                         double qt) const {
  const FractureSummary::SkipReason r = WhySkip(f, column, value, qt);
  const bool skip = r != FractureSummary::SkipReason::kNone;
  (skip ? fractures_pruned_total_ : fractures_probed_total_)
      .fetch_add(1, std::memory_order_relaxed);
  obs::Counter* counter = skip ? m_fractures_pruned_ : m_fractures_probed_;
  if (counter != nullptr) counter->Add();
  if (r == FractureSummary::SkipReason::kBloom && m_bloom_rejects_ != nullptr) {
    m_bloom_rejects_->Add();
  }
  return skip;
}

template <typename Fn>
void FracturedUpi::ForEachBufferEntry(const Tuple& t, Fn fn) const {
  auto column = [&](int col) {
    if (static_cast<size_t>(col) >= t.values().size()) return;
    const Value& v = t.Get(col);
    if (v.type() != ValueType::kDiscrete) return;
    for (const auto& alt : v.discrete().alternatives()) {
      // On the heap key's grid, so flushing never changes a row's
      // confidence.
      const double p = QuantizeProb(alt.prob * t.existence());
      if (p > 0.0) fn(BufferEntry{col, alt.value, p, t.id(), &t});
    }
  };
  column(options_.cluster_column);
  for (int col : secondary_columns_) {
    if (col != options_.cluster_column) column(col);
  }
}

Result<std::unique_ptr<FracturedUpi>> FracturedUpi::Build(
    storage::DbEnv* env, std::string name, catalog::Schema schema,
    UpiOptions options, std::vector<int> secondary_columns,
    const std::vector<Tuple>& tuples) {
  // Checked even without tuples: the first flush would fail otherwise, and
  // every flush after it.
  UPI_RETURN_NOT_OK(Upi::CheckSecondaryColumns(schema, secondary_columns));
  std::unique_ptr<FracturedUpi> table(
      new FracturedUpi(env, std::move(name), std::move(schema), options,
                       std::move(secondary_columns)));
  if (tuples.empty()) return table;
  FractureSummary::Builder summary;
  UPI_ASSIGN_OR_RETURN(
      std::unique_ptr<Upi> main,
      Upi::Build(env, table->name_ + ".main", table->schema_, options,
                 table->secondary_columns_, tuples, &summary));
  table->fractures_.push_back(Fracture{std::move(main), summary.Build()});
  table->has_main_ = true;
  return table;
}

void FracturedUpi::Release(std::unique_ptr<FracturedUpi> table) {
  storage::DbEnv* env = table->env_;
  for (Fracture& f : table->fractures_) Upi::Release(std::move(f.upi));
  for (const DeleteSet& d : table->delete_sets_) env->DropFile(d.file);
}

Status FracturedUpi::Insert(const Tuple& tuple) {
  {
    std::unique_lock lock(mu_);
    // Checked now, not at the flush: a buffered tuple no fracture can hold
    // would fail every later flush.
    UPI_RETURN_NOT_OK(CheckClusteredValue(tuple, options_.cluster_column));
    if (Deleted(tuple.id())) {
      return Status::InvalidArgument(
          "TupleId reuse after deletion is not allowed");
    }
    std::string buf;
    tuple.Serialize(&buf);
    auto [it, inserted] =
        buffer_.emplace(tuple.id(), BufferedTuple{tuple, buf.size()});
    if (!inserted) return Status::AlreadyExists("TupleId already buffered");
    ForEachBufferEntry(it->second.tuple,
                       [&](const BufferEntry& e) { buffer_index_.insert(e); });
    buffer_bytes_ += it->second.bytes;
    stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  FireWriteHook();
  return Status::OK();
}

Status FracturedUpi::Delete(TupleId id) {
  {
    std::unique_lock lock(mu_);
    auto it = buffer_.find(id);
    stats_epoch_.fetch_add(1, std::memory_order_relaxed);
    if (it != buffer_.end()) {
      ForEachBufferEntry(it->second.tuple, [&](const BufferEntry& e) {
        buffer_index_.erase(e);
      });
      buffer_bytes_ -= it->second.bytes;
      buffer_.erase(it);  // never reached disk; no delete-set entry needed
    } else {
      buffer_deletes_.insert(id);
    }
  }
  FireWriteHook();
  return Status::OK();
}

bool FracturedUpi::MayHoldTupleId(TupleId id) const {
  std::shared_lock lock(mu_);
  if (buffer_.contains(id)) return true;
  if (Deleted(id)) return false;
  for (const Fracture& f : fractures_) {
    if (f.summary->MayContainTupleId(id)) return true;
  }
  return false;
}

Status FracturedUpi::PersistDeleteSet(const std::string& name,
                                      std::vector<TupleId> ids) {
  storage::NewFiles files(env_);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* file,
                       files.Create(name, Upi::kPageSize));
  const size_t per_page = Upi::kPageSize / 8;
  std::string page;
  for (size_t i = 0; i < ids.size(); i += per_page) {
    page.clear();
    for (size_t j = i; j < std::min(ids.size(), i + per_page); ++j) {
      PutFixed64BE(&page, ids[j]);
    }
    storage::PageId pid = file->Allocate();
    file->Write(pid, page);  // sequential batch write
  }
  files.Keep();
  delete_sets_.push_back(DeleteSet{file, std::move(ids)});
  return Status::OK();
}

void FracturedUpi::EnableAdaptiveTuning(std::vector<WorkloadQuery> workload,
                                        double storage_budget_bytes) {
  std::unique_lock lock(mu_);
  tuning_workload_ = std::move(workload);
  tuning_budget_bytes_ = storage_budget_bytes;
}

void FracturedUpi::RetuneFromBuffer() {
  if (tuning_workload_.empty() || buffer_.empty()) return;
  // Build statistics of the data about to be flushed and re-run the
  // Section 6.3 procedure: the new fracture gets its own cutoff threshold.
  histogram::ProbHistogram hist(20);
  for (const auto& [id, bt] : buffer_) {
    const Value& cv = bt.tuple.Get(options_.cluster_column);
    if (cv.type() != ValueType::kDiscrete) continue;
    bool first = true;
    for (const auto& a : cv.discrete().alternatives()) {
      hist.Add(a.value, bt.tuple.existence() * a.prob, first);
      first = false;
    }
  }
  double avg_entry = static_cast<double>(buffer_bytes_) /
                         static_cast<double>(buffer_.size()) +
                     24.0;
  histogram::SelectivityEstimator estimator(&hist);
  Advisor advisor(env_->profile(), &estimator, avg_entry, Upi::kPageSize);
  CutoffRecommendation rec = advisor.RecommendCutoff(
      {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}, tuning_workload_,
      tuning_budget_bytes_);
  if (rec.feasible) options_.cutoff = rec.cutoff;
}

Status FracturedUpi::FlushBuffer() {
  bool wrote = false;
  {
    std::unique_lock lock(mu_);
    UPI_ASSIGN_OR_RETURN(wrote, FlushBufferLocked());
  }
  if (wrote) FireMaintenanceHook(MaintenanceOp::kFlush, 0);
  return Status::OK();
}

Status FracturedUpi::Run(MaintenanceOp op, size_t merge_count) {
  switch (op) {
    case MaintenanceOp::kFlush:
      return FlushBuffer();
    case MaintenanceOp::kMergeAll:
      return MergeAll();
    case MaintenanceOp::kMergePartial:
      return MergeOldestFractures(merge_count);
  }
  return Status::InvalidArgument("unknown maintenance op");
}

Result<bool> FracturedUpi::FlushBufferLocked() {
  if (buffer_.empty() && buffer_deletes_.empty()) return false;
  RetuneFromBuffer();
  std::string frac_name = name_ + ".frac" + std::to_string(fracture_seq_++);
  Fracture frac;
  if (!buffer_.empty()) {
    std::vector<Tuple> tuples;
    tuples.reserve(buffer_.size());
    for (auto& [id, bt] : buffer_) tuples.push_back(bt.tuple);
    // Each fracture is an independent UPI built with the *current* tuning
    // parameters (Section 4.2: per-fracture parameters).
    FractureSummary::Builder summary;
    UPI_ASSIGN_OR_RETURN(frac.upi,
                         Upi::Build(env_, frac_name, schema_, options_,
                                    secondary_columns_, tuples, &summary));
    frac.summary = summary.Build();
  }
  if (!buffer_deletes_.empty()) {
    // Written before the fracture is installed: a failed create leaves the
    // table as it was.
    std::vector<TupleId> ids(buffer_deletes_.begin(), buffer_deletes_.end());
    Status persisted = PersistDeleteSet(frac_name + ".delset", std::move(ids));
    if (!persisted.ok()) {
      if (frac.upi != nullptr) Upi::Release(std::move(frac.upi));
      return persisted;
    }
    deleted_.insert(buffer_deletes_.begin(), buffer_deletes_.end());
  }
  if (frac.upi != nullptr) fractures_.push_back(std::move(frac));
  buffer_index_.clear();
  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_deletes_.clear();
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t FracturedUpi::num_live_tuples() const {
  std::shared_lock lock(mu_);
  uint64_t tuples = buffer_.size();
  for (const Fracture& f : fractures_) tuples += f.upi->num_tuples();
  return tuples - deleted_.size() - buffer_deletes_.size();
}

std::vector<std::shared_ptr<const FractureSummary>> FracturedUpi::summaries()
    const {
  std::shared_lock lock(mu_);
  std::vector<std::shared_ptr<const FractureSummary>> out;
  out.reserve(fractures_.size());
  for (const Fracture& f : fractures_) out.push_back(f.summary);
  return out;
}

double FracturedUpi::EstimateSelectivity(std::string_view value,
                                         double qt) const {
  std::shared_lock lock(mu_);
  double hits = 0.0, total = 0.0;
  for (const Fracture& f : fractures_) {
    const auto& h = f.upi->prob_histogram();
    hits += h.EstimateHeapHits(value, qt, f.upi->options().cutoff);
    total += h.EstimateTotalHeapEntries(f.upi->options().cutoff);
  }
  if (total <= 0) return 0.0;
  double s = hits / total;
  return s > 1.0 ? 1.0 : s;
}

PathStats FracturedUpi::Stats() const {
  PathStats s;
  s.cutoff = options_.cutoff;
  s.table.num_fractures = 0;
  {
    std::shared_lock lock(mu_);
    for (const Fracture& f : fractures_) {
      PathStats u = f.upi->Stats();
      s.table.table_bytes += u.table.table_bytes;
      s.table.num_leaf_pages += u.table.num_leaf_pages;
      s.table.btree_height =
          std::max(s.table.btree_height, u.table.btree_height);
      ++s.table.num_fractures;
      s.heap_entries += u.heap_entries;
      s.num_tuples += u.num_tuples;
      s.seek_span_bytes = u.seek_span_bytes;
      // Values recur across fractures: the widest fracture approximates the
      // distinct count better than the sum.
      s.distinct_primary_values =
          std::max(s.distinct_primary_values, u.distinct_primary_values);
    }
    s.num_tuples += buffer_.size();
  }
  if (s.table.num_fractures == 0) s.table.num_fractures = 1;
  s.charges_open_per_query = true;
  // Summary-pruned fan-out with a running k-th-score bound (see OpenTopK);
  // each probed fracture streams k rows at most.
  s.supports_direct_topk = true;
  return s;
}

histogram::PtqEstimate FracturedUpi::EstimatePtq(std::string_view value,
                                                 double qt) const {
  histogram::PtqEstimate est;
  double total_heap = 0.0;
  std::shared_lock lock(mu_);
  for (const Fracture& f : fractures_) {
    histogram::PtqEstimate e = f.upi->EstimatePtq(value, qt);
    est.heap_entries += e.heap_entries;
    est.cutoff_pointers += e.cutoff_pointers;
    total_heap += static_cast<double>(f.upi->heap_entries());
  }
  est.selectivity =
      total_heap > 0 ? std::min(1.0, est.heap_entries / total_heap) : 0.0;
  return est;
}

double FracturedUpi::EstimateSecondaryMatches(int column,
                                              std::string_view value,
                                              double qt) const {
  double n = 0.0;
  std::shared_lock lock(mu_);
  for (const Fracture& f : fractures_) {
    n += f.upi->EstimateSecondaryMatches(column, value, qt);
  }
  return n;
}

double FracturedUpi::SecondaryAvgPointers(int column) const {
  double weighted = 0.0, entries = 0.0;
  std::shared_lock lock(mu_);
  for (const Fracture& f : fractures_) {
    SecondaryIndex* sec = f.upi->secondary(column);
    if (sec == nullptr) continue;
    double n = static_cast<double>(sec->num_entries());
    weighted += sec->avg_pointers() * n;
    entries += n;
  }
  return entries > 0 ? weighted / entries : 1.0;
}

double FracturedUpi::EstimateTopKThreshold(std::string_view value,
                                           size_t k) const {
  std::shared_lock lock(mu_);
  int nb = 0;
  for (const Fracture& f : fractures_) {
    nb = std::max(nb, f.upi->prob_histogram().num_buckets());
  }
  if (nb == 0) return 0.0;
  double acc = 0.0;
  for (int b = nb - 1; b >= 0; --b) {
    double lo = static_cast<double>(b) / nb;
    double hi = static_cast<double>(b + 1) / nb + (b == nb - 1 ? 1e-9 : 0.0);
    for (const Fracture& f : fractures_) {
      const histogram::ProbHistogram& h = f.upi->prob_histogram();
      acc += h.CountFirst(value, lo, hi) + h.CountRest(value, lo, hi);
    }
    if (acc >= static_cast<double>(k)) return lo;
  }
  return 0.0;
}

uint64_t FracturedUpi::size_bytes() const {
  std::shared_lock lock(mu_);
  uint64_t total = 0;
  for (const Fracture& f : fractures_) total += f.upi->size_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::pair<FracturedUpi::BufferIndex::const_iterator,
          FracturedUpi::BufferIndex::const_iterator>
FracturedUpi::BufferRange(int column, std::string_view value,
                          double qt) const {
  // Confidence sorts descending: the range runs from above every confidence
  // down to the last entry at qt.
  return {buffer_index_.lower_bound(
              BufferEntry{column, value,
                          std::numeric_limits<double>::infinity(), 0}),
          buffer_index_.upper_bound(BufferEntry{
              column, value, qt, std::numeric_limits<TupleId>::max()})};
}

bool FracturedUpi::MayMatch(int column, std::string_view value,
                            double qt) const {
  std::shared_lock lock(mu_);
  if (!options_.enable_pruning) return true;
  const int col = ResolveColumn(column);
  // The buffer's index covers the clustered and the secondary columns.
  if (col == options_.cluster_column || HasSecondary(col)) {
    auto [first, last] = BufferRange(col, value, qt);
    if (first != last) return true;
  } else if (!buffer_.empty()) {
    return true;
  }
  return std::any_of(fractures_.begin(), fractures_.end(),
                     [&](const Fracture& f) {
                       return WhySkip(f, col, value, qt) ==
                              FractureSummary::SkipReason::kNone;
                     });
}

PruneSet FracturedUpi::ForQuery(int column, std::string_view value,
                                double qt) const {
  std::shared_lock lock(mu_);
  PruneSet set;
  const int col = ResolveColumn(column);
  for (const Fracture& f : fractures_) {
    const bool skip =
        WhySkip(f, col, value, qt) != FractureSummary::SkipReason::kNone;
    set.probe.push_back(!skip);
    ++(skip ? set.pruned : set.probed);
  }
  return set;
}

PruneEstimate FracturedUpi::EstimatePrune(int column, std::string_view value,
                                          double qt) const {
  std::shared_lock lock(mu_);
  PruneEstimate pe;
  const int col = ResolveColumn(column);
  for (const Fracture& f : fractures_) {
    ++pe.total_fractures;
    if (WhySkip(f, col, value, qt) != FractureSummary::SkipReason::kNone) {
      continue;
    }
    pe.probed_fractures += 1.0;
    pe.probed_bytes += f.upi->heap_tree()->size_bytes();
  }
  if (pe.total_fractures == 0) {
    pe.total_fractures = 1;  // an empty table still prices one probe
    pe.probed_fractures = 1.0;
  }
  return pe;
}

std::unique_ptr<ResultCursor> FracturedUpi::OpenSecondary(
    int column, std::string_view value, double qt,
    SecondaryAccessMode mode) const {
  std::shared_lock lock(mu_);
  std::vector<PtqMatch> rows;
  if (!HasSecondary(column)) {
    return std::make_unique<MaterializedCursor>(
        std::move(rows), Status::InvalidArgument("no secondary index"));
  }
  for (auto [it, end] = BufferRange(column, value, qt); it != end; ++it) {
    rows.push_back(it->Row());
  }
  Status st = Status::OK();
  for (const Fracture& f : fractures_) {
    // The summary fences cover every secondary alternative, so a fracture
    // whose zone/Bloom/max-prob summary rules the probe out never opens.
    if (Prune(f, column, value, qt)) continue;
    std::unique_ptr<ResultCursor> c =
        f.upi->OpenSecondary(column, value, qt, mode);
    c->SetPredicate(NotDeleted());
    st = c->Drain(&rows);
    if (!st.ok()) break;
  }
  return std::make_unique<MaterializedCursor>(std::move(rows), std::move(st));
}

std::unique_ptr<ResultCursor> FracturedUpi::OpenTopK(std::string_view value,
                                                     size_t k) const {
  std::shared_lock lock(mu_);
  std::vector<PtqMatch> rows;
  if (k == 0) return std::make_unique<MaterializedCursor>(std::move(rows));
  const int col = options_.cluster_column;
  // Buffer candidates compete at any confidence (no threshold in top-k).
  // Only the buffer's k best can reach the answer: they lead its range.
  for (auto [it, end] = BufferRange(col, value, 0.0);
       it != end && rows.size() < k; ++it) {
    rows.push_back(it->Row());
  }
  // Running k-th-best bound: a min-heap of the k highest confidences seen so
  // far. A later fracture must beat heap.top() to change the answer.
  std::priority_queue<double, std::vector<double>, std::greater<double>> best;
  auto note = [&](double conf) {
    if (best.size() < k) {
      best.push(conf);
    } else if (conf > best.top()) {
      best.pop();
      best.push(conf);
    }
  };
  for (const PtqMatch& m : rows) note(m.confidence);
  Status st = Status::OK();
  for (const Fracture& f : fractures_) {
    // The PTQ decision with the k-th score as its threshold: skip when the
    // value cannot be present, or — strictly — when no alternative can beat
    // the bound (a tie could still win its id tie-break, so equality must
    // probe). Until k scores are seen any alternative can enter.
    const double bound = best.size() >= k ? best.top() : 0.0;
    if (Prune(f, col, value, bound)) continue;
    // k surviving rows per fracture suffice: the global top-k is contained
    // in the union of per-fracture (delete-filtered) top-k streams. The
    // limit counts only rows that pass the predicate, so the stream reads
    // past deleted rows until k rows survive.
    std::unique_ptr<ResultCursor> c = f.upi->OpenTopK(value, k);
    c->SetPredicate(NotDeleted());
    PtqMatch m;
    while (c->TakeNext(&m)) {
      note(m.confidence);
      rows.push_back(std::move(m));
    }
    st = c->status();
    if (!st.ok()) break;
  }
  SortByConfidenceDesc(&rows);
  if (rows.size() > k) rows.resize(k);
  return std::make_unique<MaterializedCursor>(std::move(rows), std::move(st));
}

Status FracturedUpi::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  // No filter, no pruning: every fracture can hold live tuples.
  return ScanTuplesMatching(/*column=*/-1, std::string_view(), /*qt=*/-1.0,
                            fn);
}

Status FracturedUpi::ScanTuplesMatching(
    int column, std::string_view value, double qt,
    const std::function<void(catalog::TupleView)>& fn) const {
  std::shared_lock lock(mu_);
  // qt < 0 marks the unfiltered sweep (ScanTuples): nothing can be pruned.
  const bool filtered = qt >= 0.0;
  const int col = ResolveColumn(column);
  std::set<catalog::TupleId> seen;
  obs::QueryTrace* trace = obs::CurrentTrace();
  // The RAM buffer first, every tuple whatever the filter: its tuples shadow
  // nothing (TupleIds are unique), emitting them costs no I/O, and the
  // scan-filter caller re-checks the predicate.
  std::string bytes;
  for (const auto& [id, bt] : buffer_) {
    seen.insert(id);
    bytes.clear();
    bt.tuple.Serialize(&bytes);
    fn(catalog::TupleView(bytes));
  }
  if (trace != nullptr && !buffer_.empty()) {
    obs::TraceOp op;
    op.label = name_ + ".buffer";
    op.rows = buffer_.size();  // RAM scan: no I/O by construction
    trace->ops.push_back(std::move(op));
  }
  Status st = Status::OK();
  obs::TraceOpScope op_scope;  // one re-arming scope spans the fan-out
  for (const Fracture& f : fractures_) {
    if (!st.ok()) break;
    const Upi& upi = *f.upi;
    // A fracture that cannot contain a qualifying (value, qt) alternative
    // contributes nothing to a filtered sweep: skip it, zero pages read.
    if (filtered && Prune(f, col, value, qt)) {
      if (trace != nullptr) {
        obs::TraceOp op;
        op.label = upi.name();
        op.pruned = true;
        trace->ops.push_back(std::move(op));
      }
      continue;
    }
    uint64_t emitted = 0;
    upi.ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
      if (!st.ok()) return;
      UpiKey k;
      Status dst = DecodeUpiKey(key, &k);
      if (!dst.ok()) {
        st = dst;
        return;
      }
      // The heap duplicates a tuple per qualifying alternative; report once,
      // and apply both the flushed and the still-buffered delete sets.
      if (Deleted(k.id)) return;
      if (!seen.insert(k.id).second) return;
      st = catalog::TupleView::Validate(tuple_bytes);
      if (!st.ok()) return;
      fn(catalog::TupleView(tuple_bytes));
      ++emitted;
    });
    if (op_scope.active()) op_scope.Finish(upi.name(), emitted);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Streaming cursor (the pruned fan-out, executed lazily)
// ---------------------------------------------------------------------------

/// FracturedUpi::OpenPtq's cursor: the pruned fan-out, executed lazily.
class FracturedPtqCursor : public ResultCursor {
 public:
  FracturedPtqCursor(const FracturedUpi* table, std::string_view value,
                     double qt);

 private:
  bool Produce(PtqMatch* out) override;

  std::shared_lock<sync::SharedMutex> lock_;
  const FracturedUpi* table_;
  std::string value_;
  double qt_ = 0.0;
  // The buffer index's range of matches, serialized as they are pulled
  // (lock_ keeps the index and the buffered tuples in place).
  FracturedUpi::BufferIndex::const_iterator buf_next_;
  FracturedUpi::BufferIndex::const_iterator buf_end_;
  std::vector<const Upi*> pending_;  // post-pruning fan-out, opened lazily
  size_t next_fracture_ = 0;
  std::unique_ptr<ResultCursor> cur_;
  // Per-fracture trace attribution (inert when no QueryTrace is installed):
  // the scope re-arms at each fracture boundary, so each drained fracture
  // becomes one TraceOp carrying exactly its own thread-stats delta.
  obs::TraceOpScope op_scope_;
  const Upi* cur_upi_ = nullptr;
  uint64_t cur_rows_ = 0;
};

FracturedPtqCursor::FracturedPtqCursor(const FracturedUpi* table,
                                       std::string_view value, double qt)
    : lock_(table->mu_), table_(table), value_(value), qt_(qt) {
  // The buffer's matches cost no I/O and stream first.
  const int col = table_->options_.cluster_column;
  std::tie(buf_next_, buf_end_) = table_->BufferRange(col, value_, qt_);
  obs::QueryTrace* trace = obs::CurrentTrace();
  for (const Fracture& f : table_->fractures_) {
    if (!table_->Prune(f, col, value_, qt_)) {
      pending_.push_back(f.upi.get());
      continue;
    }
    if (trace != nullptr) {
      // A pruned fracture is a real plan node with provably-zero actuals.
      obs::TraceOp op;
      op.label = f.upi->name();
      op.pruned = true;
      trace->ops.push_back(std::move(op));
    }
  }
  if (trace != nullptr && buf_next_ != buf_end_) {
    obs::TraceOp op;
    op.label = table_->name_ + ".buffer";
    // RAM read: no I/O by construction.
    op.rows = static_cast<uint64_t>(std::distance(buf_next_, buf_end_));
    trace->ops.push_back(std::move(op));
  }
}

bool FracturedPtqCursor::Produce(PtqMatch* out) {
  if (buf_next_ != buf_end_) {
    *out = (buf_next_++)->Row();
    return true;
  }
  for (;;) {
    if (cur_ == nullptr) {
      if (next_fracture_ >= pending_.size()) return false;
      const Upi* u = pending_[next_fracture_++];
      // Opening the fracture is where its Costinit can land (the Section
      // 6.2 Nfrac term, paid only while the file's handle is closed): heap
      // file now, cutoff file when the stream actually consults it (qt < C
      // and the consumer drains past the heap phase). A consumer that stops
      // before this fracture never pays either.
      cur_ = u->OpenPtq(value_, qt_);
      cur_->SetPredicate(table_->NotDeleted());
      cur_upi_ = u;
      cur_rows_ = 0;
    }
    if (cur_->TakeNext(out)) {
      ++cur_rows_;
      return true;
    }
    if (!cur_->status().ok()) {
      status_ = cur_->status();
      return false;
    }
    // Fracture drained: its open + descent + heap reads since the previous
    // boundary become one trace op (no-op when no trace is installed).
    if (op_scope_.active()) op_scope_.Finish(cur_upi_->name(), cur_rows_);
    cur_.reset();
  }
}

std::unique_ptr<ResultCursor> FracturedUpi::OpenPtq(std::string_view value,
                                                    double qt) const {
  return std::make_unique<FracturedPtqCursor>(this, value, qt);
}

// ---------------------------------------------------------------------------
// Merge (Section 4.3)
// ---------------------------------------------------------------------------

Status FracturedUpi::MergeAll() { return Merge(MaintenanceOp::kMergeAll, 0); }

Status FracturedUpi::MergeOldestFractures(size_t count) {
  return Merge(MaintenanceOp::kMergePartial, count);
}

Status FracturedUpi::Merge(MaintenanceOp op, size_t count) {
  const bool full = op == MaintenanceOp::kMergeAll;
  // Phase 1 (exclusive): flush pending buffers and snapshot the merged range
  // of the list plus the delete set, so the build can run without the lock.
  // A full merge takes the whole list; a partial merge the `count` oldest
  // deltas, so its build cost is proportional to the deltas.
  std::vector<const Upi*> sources;
  std::string merged_name;
  std::set<catalog::TupleId> deleted_snapshot;
  size_t first = 0;  // the merged range is [first, first + sources.size())
  {
    std::unique_lock lock(mu_);
    UPI_ASSIGN_OR_RETURN(bool flushed, FlushBufferLocked());
    first = (full || !has_main_) ? 0 : 1;
    const size_t n =
        std::min(full ? fractures_.size() : count, fractures_.size() - first);
    if (n < (full ? 1u : 2u)) {
      lock.unlock();
      // The flush alone changed the layout: journal it as one.
      if (flushed) FireMaintenanceHook(MaintenanceOp::kFlush, 0);
      return Status::OK();
    }
    for (size_t i = first; i < first + n; ++i) {
      sources.push_back(fractures_[i].upi.get());
    }
    deleted_snapshot = deleted_;
    merged_name = name_ + (full ? ".merged" : ".partial") +
                  std::to_string(fracture_seq_++);
  }

  // Phase 2 (no lock): the expensive sort-merge. Concurrent queries keep
  // fanning out over the unchanged source fractures.
  std::set<catalog::TupleId> filtered;
  FractureSummary::Builder summary;
  Fracture result;
  UPI_ASSIGN_OR_RETURN(result.upi,
                       Upi::Merge(sources, merged_name, options_,
                                  deleted_snapshot, &filtered, &summary));
  result.summary = summary.Build();

  // Phase 3 (exclusive): atomic install. The merged range moves out of the
  // list into `retired`. Fractures flushed *during* the build (possible only
  // via a direct caller; the manager serializes maintenance) were appended
  // past the range and survive the swap.
  std::vector<Fracture> retired;
  std::vector<storage::PageFile*> retired_delete_sets;
  {
    std::unique_lock lock(mu_);
    auto range = fractures_.begin() + first;
    retired.assign(std::make_move_iterator(range),
                   std::make_move_iterator(range + sources.size()));
    *range = std::move(result);
    fractures_.erase(range + 1, range + sources.size());
    has_main_ = has_main_ || full;
    // TupleIds are unique across the table and never reused, so a filtered
    // id cannot exist elsewhere: retire it from the delete set. Ids deleted
    // after the snapshot stay until the next merge.
    for (catalog::TupleId id : filtered) deleted_.erase(id);
    // Phantom deletes (ids that never matched any entry) are retired too when
    // a full merge leaves nothing else that could contain them.
    if (full && fractures().empty()) {
      for (auto it = deleted_.begin(); it != deleted_.end();) {
        if (deleted_snapshot.contains(*it)) {
          it = deleted_.erase(it);
        } else {
          ++it;
        }
      }
    }
    // A delete set none of whose ids is still in deleted_ lists nothing a
    // fracture holds.
    auto spent = std::stable_partition(
        delete_sets_.begin(), delete_sets_.end(), [&](const DeleteSet& d) {
          return std::any_of(d.ids.begin(), d.ids.end(),
                             [&](TupleId id) { return deleted_.contains(id); });
        });
    for (auto it = spent; it != delete_sets_.end(); ++it) {
      retired_delete_sets.push_back(it->file);
    }
    delete_sets_.erase(spent, delete_sets_.end());
  }
  // Release the retired files outside the lock. Every reader holds the
  // shared lock for its whole life, so none can still reach a retired
  // fracture, and no reader ever opens a delete set. Neither has a dirty
  // frame: both were written straight to the device and never changed.
  for (Fracture& f : retired) Upi::Release(std::move(f.upi));
  for (storage::PageFile* file : retired_delete_sets) env_->DropFile(file);
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  // A partial merge is logged with the *requested* count: replay re-clamps
  // against the same fracture list, so the recovered layout matches.
  FireMaintenanceHook(op, full ? 0 : count);
  return Status::OK();
}

}  // namespace upi::core
