// Horizontally partitioned tables: one gather over N Fractured UPIs.
//
// A PartitionedTable splits one logical table into N shards — each a
// `FracturedUpi` with its own heap, cutoff index, secondary indexes and
// MaintenanceManager registration — by hash or key-range on the clustered
// attribute's *highest-probability* alternative. Inserts route to the
// owning shard, so the single-index ceiling (one latch, one maintenance
// domain, one flush blocking every reader) turns into N independent domains
// that flush and merge in parallel. Deletes remove by
// TupleId, whatever value the passed tuple carries: every shard that may
// hold the id (FracturedUpi::MayHoldTupleId) gets the delete. A fracture
// Bloom false positive (about 1% per fracture) also sends it to a shard
// that lacks the id. That phantom never hides a row (TupleIds are never
// reused), but it lowers that shard's num_live_tuples() by one, and it
// costs a delete-set entry, until the shard's next full merge drops it.
//
// Reads generalize fracture pruning to shard granularity: a probe admits a
// shard when the shard's own fences may hold a match
// (FracturedUpi::MayMatch): its insert buffer's index, read exactly, and its
// fractures' summaries. UpiOptions::enable_pruning is the one switch: off, a
// probe admits every shard and every fracture. Because a tuple's
// lower-probability alternatives can land on a shard other than the one
// that owns its routing key, admissibility comes from those fences — which
// see every alternative — never from the routing function.
//
// Every read is one gather: the admitted shards' cursors run concurrently on
// a small shared GatherPool and are drained where they ran; each probe
// measures its simulated I/O on the worker's SimDisk stripe and the gather
// re-attributes it to the calling thread (SimDisk::Withdraw/Deposit), so
// Session latencies, the slow-query log, and EXPLAIN ANALYZE totals stay
// exact. The union is served through a MaterializedCursor in the engine's
// result order (confidence descending, ties by TupleId); shards hold
// disjoint TupleIds, so that order is total. Top-k is the same gather capped
// at k rows.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/access_path.h"
#include "core/fractured_upi.h"
#include "engine/query.h"
#include "obs/metrics.h"
#include "storage/db_env.h"
#include "sync/sync.h"

namespace upi::engine {

struct PartitionOptions {
  enum class Scheme { kHash, kRange };
  Scheme scheme = Scheme::kHash;
  size_t num_shards = 4;
  /// Range scheme only: ascending split keys, one fewer than num_shards.
  /// Shard i covers [splits[i-1], splits[i]) — a key equal to a split
  /// boundary belongs to the *next* shard.
  std::vector<std::string> range_splits;
};

/// The routing function: key -> owning shard. Deterministic and stateless.
class Partitioner {
 public:
  /// Validates the spec: num_shards >= 1; range scheme needs exactly
  /// num_shards - 1 strictly ascending splits (hash must pass none).
  static Result<Partitioner> Make(const PartitionOptions& options);

  size_t ShardOf(std::string_view key) const;

  size_t num_shards() const { return num_shards_; }

  /// FNV-1a, the stable cross-platform key hash of the hash scheme.
  static uint64_t HashKey(std::string_view key);

 private:
  friend class PartitionedTable;  // default-routes until Create() configures it
  Partitioner() = default;

  PartitionOptions::Scheme scheme_ = PartitionOptions::Scheme::kHash;
  size_t num_shards_ = 1;
  std::vector<std::string> splits_;
};

/// A small shared pool the gather side scatters shard probes onto. The
/// caller participates: RunAll drains queued work itself until its own batch
/// completes, so any number of Sessions can gather concurrently without
/// idling or deadlocking, and `workers == 0` degrades to pure serial
/// execution on the calling thread (deterministic — what unit tests use).
class GatherPool {
 public:
  explicit GatherPool(size_t workers, obs::MetricsRegistry* metrics = nullptr);
  ~GatherPool();

  GatherPool(const GatherPool&) = delete;
  GatherPool& operator=(const GatherPool&) = delete;

  /// Runs every task, returning when all have finished. Tasks must not call
  /// RunAll themselves.
  void RunAll(std::vector<std::function<void()>> tasks);

  size_t workers() const { return workers_.size(); }

 private:
  struct Batch {
    sync::Mutex mu{sync::LockRank::kGatherBatch};
    sync::CondVar cv;
    size_t remaining = 0;
  };

  /// Pops one queued task (nullptr when empty). Updates the depth gauge.
  std::function<void()> PopTask();
  void WorkerLoop();

  sync::Mutex mu_{sync::LockRank::kGatherPool};
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_;
  bool stopped_ = false;
  obs::Gauge* m_queue_depth_ = nullptr;  // upi_partition_gather_queue_depth
  std::vector<std::thread> workers_;
};

/// The logical table: N Fractured-UPI shards plus the router and the
/// gather. It is its own AccessPath, so the planner, executor, prepared
/// queries and EXPLAIN ANALYZE work unchanged against the logical name.
/// Every read is eager: the gather runs at open (shard probes drained where
/// they ran, on the gather pool) and the cursor serves the union.
class PartitionedTable : public AccessPath {
 public:
  /// Bulk-builds N Fractured-UPI shards named `name.s<i>` from `tuples`
  /// (routed by the clustered attribute's highest-probability alternative).
  /// A TupleId repeated in `tuples` is rejected before any shard is built.
  /// The table's owner registers the shards for maintenance (see
  /// shard_fractured). `pool` may be null: shard probes run serially on the
  /// calling thread.
  static Result<std::unique_ptr<PartitionedTable>> Create(
      storage::DbEnv* env, GatherPool* pool, std::string name,
      catalog::Schema schema, core::UpiOptions options,
      std::vector<int> secondary_columns, PartitionOptions popts,
      const std::vector<catalog::Tuple>& tuples);

  PartitionedTable(const PartitionedTable&) = delete;
  PartitionedTable& operator=(const PartitionedTable&) = delete;

  // --- Writes (routed) ------------------------------------------------------

  Status Insert(const catalog::Tuple& tuple) override;
  Status Delete(const catalog::Tuple& tuple) override;

  // --- Reads (one gather) ---------------------------------------------------

  /// The union of the admissible shards' PTQ rows, in result order.
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;
  /// Each admissible shard's top k (admitted at qt = 0); the union's best k
  /// are served.
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;
  Status ScanTuplesMatching(
      int column, std::string_view value, double qt,
      const std::function<void(catalog::TupleView)>& fn) const override;

  // --- Estimation (RAM only) -----------------------------------------------

  PathStats Stats() const override;
  uint64_t StatsEpoch() const override;
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  /// Sums the admissible shards' fracture estimates and counts the shards
  /// (probed_shards / total_shards).
  core::PruneEstimate EstimatePrune(int column, std::string_view value,
                                    double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value,
                               size_t k) const override;
  bool HasSecondary(int column) const override;
  int primary_column() const override { return options_.cluster_column; }

  // --- Introspection --------------------------------------------------------

  const std::string& name() const override { return name_; }
  const catalog::Schema& schema() const override { return schema_; }
  const core::UpiOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  /// Shard i's Fractured UPI.
  core::FracturedUpi* shard_fractured(size_t i) const {
    return shards_[i].get();
  }
  /// Cumulative shards probed / pruned by query fan-outs (test telemetry).
  uint64_t shards_probed_total() const {
    return shards_probed_total_.load(std::memory_order_relaxed);
  }
  uint64_t shards_pruned_total() const {
    return shards_pruned_total_.load(std::memory_order_relaxed);
  }

 private:
  PartitionedTable() = default;

  /// The routing key: the clustered attribute's highest-probability
  /// alternative.
  Result<std::string_view> RoutingKeyOf(const catalog::Tuple& tuple) const;
  Result<size_t> RouteOf(const catalog::Tuple& tuple) const;
  /// Whether shard `i` may match a probe (FracturedUpi::MayMatch; column < 0
  /// is the clustered attribute); every shard is admissible when pruning is
  /// off.
  bool Admissible(size_t i, int column, std::string_view value,
                  double qt) const {
    return shards_[i]->MayMatch(column, value, qt);
  }
  /// Bumps the fan-out counters for one probe that admitted `probed` shards.
  void CountFanout(size_t probed) const;
  /// Opens `open` on every admissible shard (concurrently when a pool is
  /// attached) and drains each cursor where it ran, re-attributes each
  /// probe's simulated I/O to the calling thread, and appends per-shard
  /// TraceOps labelled `op` to any active query trace. The union is served
  /// in result order; the first shard error rides in the cursor's status
  /// (its I/O is already charged).
  std::unique_ptr<ResultCursor> Gather(
      int column, std::string_view value, double qt, const char* op,
      const std::function<
          std::unique_ptr<ResultCursor>(const core::FracturedUpi&)>& open)
      const;

  storage::DbEnv* env_ = nullptr;
  GatherPool* pool_ = nullptr;  // null = serial
  std::string name_;
  catalog::Schema schema_;
  core::UpiOptions options_;
  Partitioner partitioner_;
  std::vector<std::unique_ptr<core::FracturedUpi>> shards_;

  mutable std::atomic<uint64_t> shards_probed_total_{0};
  mutable std::atomic<uint64_t> shards_pruned_total_{0};
  obs::Counter* m_shards_probed_ = nullptr;  // upi_partition_shards_probed_total
  obs::Counter* m_shards_pruned_ = nullptr;  // upi_partition_shards_pruned_total
  obs::Counter* m_rows_routed_ = nullptr;    // upi_partition_rows_routed_total
};

}  // namespace upi::engine
