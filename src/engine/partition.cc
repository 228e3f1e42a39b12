#include "engine/partition.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <utility>

#include "obs/trace.h"

namespace upi::engine {

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

uint64_t Partitioner::HashKey(std::string_view key) {
  // FNV-1a 64: stable across platforms, so hash placement (and therefore
  // on-disk shard contents) never depends on the standard library.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<Partitioner> Partitioner::Make(const PartitionOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("partitioning needs at least one shard");
  }
  Partitioner p;
  p.scheme_ = options.scheme;
  p.num_shards_ = options.num_shards;
  if (options.scheme == PartitionOptions::Scheme::kHash) {
    if (!options.range_splits.empty()) {
      return Status::InvalidArgument(
          "hash partitioning takes no range splits");
    }
    return p;
  }
  if (options.range_splits.size() != options.num_shards - 1) {
    return Status::InvalidArgument(
        "range partitioning over " + std::to_string(options.num_shards) +
        " shards needs exactly " + std::to_string(options.num_shards - 1) +
        " splits, got " + std::to_string(options.range_splits.size()));
  }
  for (size_t i = 1; i < options.range_splits.size(); ++i) {
    if (options.range_splits[i - 1] >= options.range_splits[i]) {
      return Status::InvalidArgument(
          "range splits must be strictly ascending ('" +
          options.range_splits[i - 1] + "' >= '" + options.range_splits[i] +
          "')");
    }
  }
  p.splits_ = options.range_splits;
  return p;
}

size_t Partitioner::ShardOf(std::string_view key) const {
  if (scheme_ == PartitionOptions::Scheme::kHash) {
    return HashKey(key) % num_shards_;
  }
  // Shard i covers [splits[i-1], splits[i]): the owning shard is the number
  // of splits <= key, so a key equal to a boundary goes to the next shard.
  auto it = std::upper_bound(splits_.begin(), splits_.end(), key,
                             [](std::string_view k, const std::string& s) {
                               return k < std::string_view(s);
                             });
  return static_cast<size_t>(it - splits_.begin());
}

// ---------------------------------------------------------------------------
// GatherPool
// ---------------------------------------------------------------------------

GatherPool::GatherPool(size_t workers, obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    m_queue_depth_ = metrics->gauge("upi_partition_gather_queue_depth");
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

GatherPool::~GatherPool() {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::function<void()> GatherPool::PopTask() {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (queue_.empty()) return nullptr;
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<double>(queue_.size()));
  }
  return task;
}

void GatherPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<sync::Mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<double>(queue_.size()));
      }
    }
    task();
  }
}

void GatherPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    for (auto& task : tasks) task();
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->remaining = tasks.size();
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    for (auto& t : tasks) {
      queue_.push_back([task = std::move(t), batch] {
        task();
        std::lock_guard<sync::Mutex> lock(batch->mu);
        if (--batch->remaining == 0) batch->cv.notify_all();
      });
    }
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();
  // Lend a hand: the caller drains queued probes (its own or a concurrent
  // gather's) instead of idling, so RunAll never deadlocks no matter how
  // many sessions gather at once.
  for (;;) {
    {
      std::lock_guard<sync::Mutex> lock(batch->mu);
      if (batch->remaining == 0) return;
    }
    std::function<void()> task = PopTask();
    if (task == nullptr) break;
    task();
  }
  std::unique_lock<sync::Mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] { return batch->remaining == 0; });
}

// ---------------------------------------------------------------------------
// PartitionedTable
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PartitionedTable>> PartitionedTable::Create(
    storage::DbEnv* env, GatherPool* pool, std::string name,
    catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns, PartitionOptions popts,
    const std::vector<catalog::Tuple>& tuples) {
  UPI_ASSIGN_OR_RETURN(Partitioner partitioner, Partitioner::Make(popts));
  // Each shard's build sees only its part of the input: a repeated id is
  // caught here, before any shard creates a file.
  UPI_RETURN_NOT_OK(core::CheckDistinctIds(tuples));

  auto table = std::unique_ptr<PartitionedTable>(new PartitionedTable());
  table->env_ = env;
  table->pool_ = pool;
  table->name_ = std::move(name);
  table->schema_ = schema;
  table->options_ = options;
  table->partitioner_ = std::move(partitioner);
  obs::MetricsRegistry* metrics = env->metrics();
  table->m_shards_probed_ =
      metrics->counter("upi_partition_shards_probed_total");
  table->m_shards_pruned_ =
      metrics->counter("upi_partition_shards_pruned_total");
  table->m_rows_routed_ = metrics->counter("upi_partition_rows_routed_total");

  // Route every tuple before any shard builds, then copy and build one
  // shard's tuples at a time, so the create holds one shard's copy of the
  // input, not all of them.
  const size_t n = table->partitioner_.num_shards();
  std::vector<uint32_t> shard_of(tuples.size());
  std::vector<size_t> counts(n, 0);
  for (size_t j = 0; j < tuples.size(); ++j) {
    UPI_ASSIGN_OR_RETURN(size_t shard, table->RouteOf(tuples[j]));
    shard_of[j] = static_cast<uint32_t>(shard);
    ++counts[shard];
  }

  // A shard that fails to build releases the shards built before it, so a
  // rejected create leaves no file behind.
  for (size_t i = 0; i < n; ++i) {
    std::vector<catalog::Tuple> part;
    part.reserve(counts[i]);
    for (size_t j = 0; j < tuples.size(); ++j) {
      if (shard_of[j] == i) part.push_back(tuples[j]);
    }
    auto fractured = core::FracturedUpi::Build(
        env, table->name_ + ".s" + std::to_string(i), schema, options,
        secondary_columns, part);
    if (!fractured.ok()) {
      for (auto& shard : table->shards_) {
        core::FracturedUpi::Release(std::move(shard));
      }
      return fractured.status();
    }
    table->shards_.push_back(std::move(fractured).value());
  }
  return table;
}

Result<std::string_view> PartitionedTable::RoutingKeyOf(
    const catalog::Tuple& tuple) const {
  UPI_RETURN_NOT_OK(core::CheckClusteredValue(tuple, options_.cluster_column));
  return std::string_view(
      tuple.Get(options_.cluster_column).discrete().First().value);
}

Result<size_t> PartitionedTable::RouteOf(const catalog::Tuple& tuple) const {
  UPI_ASSIGN_OR_RETURN(std::string_view key, RoutingKeyOf(tuple));
  size_t shard = partitioner_.ShardOf(key);
  if (shard >= partitioner_.num_shards()) {
    return Status::Internal("partition router produced shard " +
                            std::to_string(shard) + " of " +
                            std::to_string(partitioner_.num_shards()));
  }
  return shard;
}

Status PartitionedTable::Insert(const catalog::Tuple& tuple) {
  UPI_ASSIGN_OR_RETURN(size_t idx, RouteOf(tuple));
  UPI_RETURN_NOT_OK(shards_[idx]->Insert(tuple));
  if (m_rows_routed_ != nullptr) m_rows_routed_->Add();
  return Status::OK();
}

Status PartitionedTable::Delete(const catalog::Tuple& tuple) {
  // By id: the tuple's value may not be the one it was stored under, so
  // every shard that may hold the id gets the delete. A Bloom false positive
  // also buffers a phantom delete in a shard that lacks the id; see
  // partition.h for its effect.
  bool sent = false;
  for (const auto& shard : shards_) {
    if (!shard->MayHoldTupleId(tuple.id())) continue;
    UPI_RETURN_NOT_OK(shard->Delete(tuple));
    sent = true;
  }
  if (!sent) {
    return Status::NotFound("tuple " + std::to_string(tuple.id()) +
                            " is in no shard of '" + name_ + "'");
  }
  return Status::OK();
}

void PartitionedTable::CountFanout(size_t probed) const {
  const size_t pruned = shards_.size() - probed;
  shards_probed_total_.fetch_add(probed, std::memory_order_relaxed);
  shards_pruned_total_.fetch_add(pruned, std::memory_order_relaxed);
  if (m_shards_probed_ != nullptr) m_shards_probed_->Add(probed);
  if (m_shards_pruned_ != nullptr) m_shards_pruned_->Add(pruned);
}

std::unique_ptr<ResultCursor> PartitionedTable::Gather(
    int column, std::string_view value, double qt, const char* op,
    const std::function<
        std::unique_ptr<ResultCursor>(const core::FracturedUpi&)>& open)
    const {
  // One shard's slot in the gather.
  struct ShardRun {
    bool pruned = false;
    std::vector<core::PtqMatch> rows;
    sim::DiskStats io;
    Status status;
  };
  const size_t n = shards_.size();
  std::vector<ShardRun> runs(n);
  sim::SimDisk* disk = env_->disk();

  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < n; ++i) {
    ShardRun& run = runs[i];
    if (!Admissible(i, column, value, qt)) {
      run.pruned = true;
      continue;
    }
    const core::FracturedUpi* shard = shards_[i].get();
    tasks.push_back([disk, shard, &run, &open] {
      // Suppress any inner trace (per-fracture ops) so the per-shard record
      // below is the one operator EXPLAIN ANALYZE reconciles; measure the
      // probe's I/O on this thread's stripe and withdraw it — the gather
      // deposits it back on the calling thread, keeping per-thread
      // attribution (Session latency, slow-query log) exact and the global
      // totals unchanged.
      obs::TraceScope no_inner_trace(nullptr);
      // Each shard probe is one issuer to the device queue: on a profile with
      // internal parallelism (flash) concurrently running probes overlap
      // their service time; on the spinning disk this registers nothing.
      sim::ConcurrentIoScope io_scope(disk);
      sim::ThreadStatsWindow window(disk);
      run.status = open(*shard)->Drain(&run.rows);
      run.io = window.Delta();
      disk->WithdrawThreadStats(run.io);
    });
  }
  const size_t probed = tasks.size();
  if (pool_ != nullptr) {
    pool_->RunAll(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }

  Status st = Status::OK();
  std::vector<core::PtqMatch> rows;
  obs::QueryTrace* trace = obs::CurrentTrace();
  for (size_t i = 0; i < n; ++i) {
    ShardRun& run = runs[i];
    if (!run.pruned) {
      disk->DepositThreadStats(run.io);
      if (st.ok() && !run.status.ok()) st = run.status;
    }
    if (trace != nullptr) {
      obs::TraceOp top;
      char label[64];
      std::snprintf(label, sizeof(label), "%s shard[%zu]", op, i);
      top.label = label;
      top.rows = run.rows.size();
      top.pruned = run.pruned;
      top.io = run.io;
      top.sim_ms = run.io.SimMs(disk->params());
      trace->ops.push_back(std::move(top));
    }
    rows.insert(rows.end(), std::make_move_iterator(run.rows.begin()),
                std::make_move_iterator(run.rows.end()));
  }
  CountFanout(probed);
  return std::make_unique<MaterializedCursor>(std::move(rows), std::move(st));
}

std::unique_ptr<ResultCursor> PartitionedTable::OpenPtq(std::string_view value,
                                                        double qt) const {
  return Gather(-1, value, qt, "ptq", [&](const core::FracturedUpi& shard) {
    return shard.OpenPtq(value, qt);
  });
}

std::unique_ptr<ResultCursor> PartitionedTable::OpenSecondary(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode mode) const {
  return Gather(column, value, qt, "secondary",
                [&](const core::FracturedUpi& shard) {
                  return shard.OpenSecondary(column, value, qt, mode);
                });
}

std::unique_ptr<ResultCursor> PartitionedTable::OpenTopK(std::string_view value,
                                                         size_t k) const {
  if (k == 0) {
    return std::make_unique<MaterializedCursor>(std::vector<core::PtqMatch>{});
  }
  std::unique_ptr<ResultCursor> cursor =
      Gather(-1, value, /*qt=*/0.0, "topk",
             [&](const core::FracturedUpi& shard) {
               return shard.OpenTopK(value, k);
             });
  cursor->SetLimit(k);
  return cursor;
}

Status PartitionedTable::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  // Serial: the tuple callback isn't thread-safe, and a sweep is bandwidth-
  // bound on the single simulated spindle anyway.
  for (const auto& shard : shards_) {
    UPI_RETURN_NOT_OK(shard->ScanTuples(fn));
  }
  return Status::OK();
}

Status PartitionedTable::ScanTuplesMatching(
    int column, std::string_view value, double qt,
    const std::function<void(catalog::TupleView)>& fn) const {
  size_t probed = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!Admissible(i, column, value, qt)) continue;
    ++probed;
    UPI_RETURN_NOT_OK(shards_[i]->ScanTuplesMatching(column, value, qt, fn));
  }
  CountFanout(probed);
  return Status::OK();
}

PathStats PartitionedTable::Stats() const {
  PathStats s;
  s.cutoff = options_.cutoff;
  s.table.page_size = core::Upi::kPageSize;
  s.table.num_fractures = 0;
  uint64_t seek_span = 0;
  for (const auto& shard : shards_) {
    PathStats ss = shard->Stats();
    s.table.table_bytes += ss.table.table_bytes;
    s.table.num_leaf_pages += ss.table.num_leaf_pages;
    s.table.btree_height = std::max(s.table.btree_height, ss.table.btree_height);
    s.table.num_fractures += ss.table.num_fractures;
    s.heap_entries += ss.heap_entries;
    s.num_tuples += ss.num_tuples;
    seek_span = std::max(seek_span, ss.seek_span_bytes);
    // Routing partitions the primary values across shards, so the sum (not
    // the max) approximates the logical distinct count.
    s.distinct_primary_values += ss.distinct_primary_values;
    s.charges_open_per_query |= ss.charges_open_per_query;
  }
  if (s.table.num_fractures == 0) s.table.num_fractures = 1;
  s.seek_span_bytes = seek_span;
  s.supports_direct_topk = true;
  s.clustered = true;
  // The caller participates in its own gather, hence workers + 1.
  s.gather_width =
      pool_ != nullptr
          ? std::min<double>(static_cast<double>(shards_.size()),
                             static_cast<double>(pool_->workers() + 1))
          : 1.0;
  return s;
}

uint64_t PartitionedTable::StatsEpoch() const {
  uint64_t epoch = 0;
  for (const auto& shard : shards_) epoch += shard->StatsEpoch();
  return epoch;
}

histogram::PtqEstimate PartitionedTable::EstimatePtq(std::string_view value,
                                                     double qt) const {
  histogram::PtqEstimate est;
  double total_heap = 0.0;
  for (const auto& shard : shards_) {
    histogram::PtqEstimate e = shard->EstimatePtq(value, qt);
    est.heap_entries += e.heap_entries;
    est.cutoff_pointers += e.cutoff_pointers;
    total_heap += static_cast<double>(shard->Stats().heap_entries);
  }
  est.selectivity =
      total_heap > 0 ? std::min(1.0, est.heap_entries / total_heap) : 0.0;
  return est;
}

double PartitionedTable::EstimateSecondaryMatches(int column,
                                                  std::string_view value,
                                                  double qt) const {
  double n = 0.0;
  for (const auto& shard : shards_) {
    n += shard->EstimateSecondaryMatches(column, value, qt);
  }
  return n;
}

core::PruneEstimate PartitionedTable::EstimatePrune(int column,
                                                    std::string_view value,
                                                    double qt) const {
  core::PruneEstimate pe;
  pe.probed_shards = 0.0;
  pe.total_shards = static_cast<uint32_t>(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    core::PruneEstimate inner =
        shards_[i]->EstimatePrune(column, value, qt);
    pe.total_fractures += inner.total_fractures;
    if (Admissible(i, column, value, qt)) {
      pe.probed_shards += 1.0;
      pe.probed_fractures += inner.probed_fractures;
      pe.probed_bytes += inner.probed_bytes;
    }
  }
  return pe;
}

double PartitionedTable::SecondaryAvgPointers(int column) const {
  // Tuple-weighted mean over shards (shards share one secondary design).
  double weighted = 0.0, tuples = 0.0;
  for (const auto& shard : shards_) {
    double n = static_cast<double>(shard->Stats().num_tuples);
    weighted += shard->SecondaryAvgPointers(column) * n;
    tuples += n;
  }
  return tuples > 0 ? weighted / tuples : 1.0;
}

double PartitionedTable::EstimateTopKThreshold(std::string_view value,
                                               size_t k) const {
  // The union holds at least each shard's entries, so the union's k-th
  // threshold is at least the best per-shard one.
  double best = 0.0;
  for (const auto& shard : shards_) {
    best = std::max(best, shard->EstimateTopKThreshold(value, k));
  }
  return best;
}

bool PartitionedTable::HasSecondary(int column) const {
  for (const auto& shard : shards_) {
    if (shard->HasSecondary(column)) return true;
  }
  return false;
}

}  // namespace upi::engine
