// Fractured UPIs (Section 4).
//
// Updates accumulate in a RAM insert buffer plus a delete set; FlushBuffer()
// writes them out sequentially as a new *fracture* — an independent UPI
// (heap + cutoff index + secondary indexes) holding only the data inserted
// since the previous flush, together with a delete-set file listing TupleIDs
// deleted in the interval. All on-disk files are written once, sequentially,
// and never updated in place — the LSM-tree idea applied per-UPI, which is
// what keeps maintenance cost near an append-only heap (Table 7) and
// eliminates fragmentation (Figure 9).
//
// The insert buffer is the memtable of an LSM tree: one ordered index, kept
// under the table lock by Insert, Delete and the flush, holds an entry per
// alternative of the clustered column and of each secondary column, keyed
// like the heap (column, value ascending, confidence descending, TupleId) and
// pointing at the buffered tuple. A PTQ or a secondary probe reads one key
// range of it and stops below its threshold, top-k takes the range's first k
// entries, and the buffer's rows stream in the heap's order.
//
// The on-disk part is one ordered list of immutable fractures, each paired
// with its pruning summary: the main fracture first when one exists, then the
// deltas oldest first. Queries fan out to the buffer and that list, union the
// results, and subtract delete sets (Section 4.2); each executed fan-out makes
// its per-fracture pruning decision through one member. MayMatch answers the
// same question for the whole table, from the buffer's index and the
// summaries: a partitioned table admits its shards through it. Each probed
// fracture costs an extra Costinit + H seeks, the linear-in-Nfrac overhead
// the Section 6.2 cost model captures and merging (Section 4.3) repays. Both
// merges are one sort-merge over a range of the list: a full merge
// (MergeAll) turns the whole list into a new main, a partial merge
// (MergeOldestFractures) the oldest deltas into one delta.
//
// Maintenance is one op type, core::MaintenanceOp (flush, full merge,
// partial merge), with one dispatch, Run(op, merge_count). The maintenance
// manager schedules it, the maintenance hook reports it, the WAL journals it
// and recovery replays it. The table learns of nothing above it: its owner
// installs two hooks, one fired after each write (the manager's watermark
// check) and one after each maintenance op (the WAL).
//
// A FracturedUpi is an AccessPath (core/access_path.h): the engine plans and
// runs a fractured table's queries against it directly, and its estimation
// hooks aggregate the fractures' stats and histograms under the table's
// shared lock, so planning (like querying) is safe while background
// maintenance merges underneath.
//
// Costinit follows a handle cache, as the immutable runs of an LSM tree do:
// a fracture's heap file pays it on its first touch, and its cutoff file on
// its first consult, after the fracture is built and after each
// DbEnv::ColdCache() (which closes every handle); later touches are free
// until the next ColdCache(). The Section 6.2 price is therefore the cold
// one, and the planner and MergePolicy keep pricing it. With
// UpiOptions::charge_open_per_query every query instead pays Costinit once
// for every file it touches.
//
// Per-fracture tuning: each flush snapshots the current UpiOptions, so the
// cutoff threshold or pointer limit can differ between fractures (the paper's
// adaptive-design hook; see core/advisor.h).
//
// Concurrency contract (for the background maintenance subsystem in
// src/maintenance/): a shared_mutex guards the fracture list and RAM buffers.
// Queries and Insert/Delete may run from any number of threads. Merges do
// their expensive build phase *without* the lock — concurrent queries keep
// fanning out over the old fracture list — and take the exclusive lock only
// to swap the new list in atomically. The swap moves the merged fractures
// out of the list; after the lock is released they are retired and
// Upi::Release drops their files, pool frames and RAM pages, together with
// every delete-set file whose ids the merge retired. That is safe because
// every read (each OpenPtq cursor included) holds the shared lock for its
// whole life, so no reader can still reach a retired fracture, and a retired
// fracture is never dirty: it was written straight to the device and never
// changed, so neither a flush nor a merge writes anything back through the
// pool. Raw Upi pointers taken through main() or fractures() die with the
// next merge. At most ONE maintenance operation (FlushBuffer / MergeAll /
// MergeOldestFractures / Run) may be in flight at a time; MaintenanceManager
// serializes them per table. Flushes hold the exclusive lock end-to-end (they
// are sequential appends, cheap next to merges), which keeps the buffered
// tuples visible to every query.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/fracture_summary.h"
#include "core/upi.h"
#include "obs/metrics.h"
#include "sync/sync.h"

namespace upi::core {

class FracturedUpi;

/// A maintenance operation on a Fractured UPI. The values are the WAL's wire
/// values (wal/wal_format.h), so they never change.
enum class MaintenanceOp : uint8_t {
  kFlush = 0,         // FracturedUpi::FlushBuffer
  kMergeAll = 1,      // FracturedUpi::MergeAll
  kMergePartial = 2,  // FracturedUpi::MergeOldestFractures(merge_count)
};

/// One immutable on-disk fracture and its pruning summary (shared, so a
/// FracturedUpi::summaries() snapshot outlives a later install).
struct Fracture {
  std::unique_ptr<Upi> upi;
  std::shared_ptr<const FractureSummary> summary;
};

class FracturedPtqCursor;

class FracturedUpi final : public AccessPath {
 public:
  /// The one way a Fractured UPI comes into being: checks the secondary
  /// columns, which apply to every fracture, and bulk-builds the main
  /// fracture from `tuples` when there are any (Upi::Build, which checks the
  /// rest of the input before its first file). A rejected build leaves no
  /// file behind. TupleIds must be unique across the table's lifetime
  /// (never reused after deletion).
  static Result<std::unique_ptr<FracturedUpi>> Build(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      UpiOptions options, std::vector<int> secondary_columns,
      const std::vector<catalog::Tuple>& tuples);

  /// Destroys a table and drops every fracture's files and every delete-set
  /// file (Upi::Release). The caller guarantees that no reader or
  /// maintenance task can still reach `table`.
  static void Release(std::unique_ptr<FracturedUpi> table);

  /// Buffers the tuple in RAM (no I/O). Rejects a tuple no fracture could
  /// hold (CheckClusteredValue) up front, as Upi::Insert does.
  Status Insert(const catalog::Tuple& tuple) override;

  /// Buffers a deletion (no I/O). Removes the tuple directly if it is still
  /// in the insert buffer.
  Status Delete(catalog::TupleId id);
  Status Delete(const catalog::Tuple& tuple) override {
    return Delete(tuple.id());
  }

  /// Whether live tuple `id` may be in this table (no I/O): exact on the
  /// insert buffer and the delete sets, then each fracture's TupleId Bloom
  /// fence (FractureSummary::MayContainTupleId). Never false for a live id;
  /// a Bloom false positive can make it true for an absent one.
  bool MayHoldTupleId(catalog::TupleId id) const;

  /// Writes buffered inserts/deletes out as a new fracture (sequential I/O).
  /// No-op if both buffers are empty. Uses the *current* options(), which the
  /// advisor may have retuned since the last flush. A flush that fails
  /// leaves the fracture list, the delete sets and the buffers as they were.
  Status FlushBuffer();

  /// Merges the whole fracture list into a fresh main UPI (Section 4.3): a
  /// parallel sort-merge costing about one sequential read plus one
  /// sequential write of the whole database (Table 8). Flushes the buffer
  /// first; no merge when that leaves no fracture.
  Status MergeAll();

  /// Section 4.3's cheaper alternative: "One option is to only merge a few
  /// fractures at a time." Merges the `count` *oldest delta fractures* into
  /// one (the main fracture is untouched, so the cost is proportional to the
  /// merged deltas, not the whole database). Flushes the buffer first; no
  /// merge when that leaves fewer than two deltas.
  Status MergeOldestFractures(size_t count);

  /// The one maintenance dispatch: FlushBuffer, MergeAll or
  /// MergeOldestFractures(merge_count) for `op`.
  Status Run(MaintenanceOp op, size_t merge_count);

  /// Section 4.2's adaptive design: when set, every FlushBuffer() re-runs the
  /// cutoff advisor over the given workload profile using the *buffered*
  /// data's statistics, so each fracture is built with its own tuning
  /// parameters. Pass an empty workload to disable.
  void EnableAdaptiveTuning(std::vector<WorkloadQuery> workload,
                            double storage_budget_bytes);

  // --- Hooks (set once, before the table sees concurrent traffic) ---------

  /// Fired after every successful Insert and Delete, with the table lock
  /// RELEASED: a Database points it at its maintenance manager's watermark
  /// check (MaintenanceManager::NotifyWrite), which may take the manager's
  /// locks.
  void SetWriteHook(std::function<void()> hook) {
    write_hook_ = std::move(hook);
  }

  /// Fired by FlushBuffer / MergeAll / MergeOldestFractures with the op that
  /// actually changed the physical shape, after the operation completes and
  /// the fracture-list lock is RELEASED (the hook may append to the WAL,
  /// whose locks rank below this table's), and only when the call was not a
  /// no-op: a merge call that only flushed reports kFlush. `merge_count`
  /// carries MergeOldestFractures' requested count. Set once at registration
  /// time, before the table sees concurrent traffic; the WAL layer journals
  /// the op so recovery reproduces the same fracture layout.
  void SetMaintenanceHook(
      std::function<void(MaintenanceOp, size_t merge_count)> hook) {
    maintenance_hook_ = std::move(hook);
  }

  /// Algorithm 2 across buffer + every fracture, delete sets applied,
  /// executed lazily: the pruned fan-out is fixed at open (the buffer
  /// index's key range located, free, and the fracture list pruned through
  /// the FractureSummaries), and each surviving fracture is opened — Costinit
  /// charged if its handle is closed, cursor seeked — only when the consumer
  /// drains into it, so a LIMIT consumer that stops early never pays for the
  /// fractures behind it and a pruned fracture costs zero simulated pages.
  /// Rows arrive in storage order: the buffer's in the heap's order
  /// (confidence descending, ties by TupleId), then each fracture's.
  ///
  /// The cursor holds the table's shared lock for its lifetime: results stay
  /// consistent while background maintenance runs, but a flush/merge
  /// *install* (and any Insert/Delete) blocks until the cursor is destroyed
  /// — drain promptly, and never touch the same table from the same thread
  /// while one is open: a write would self-deadlock, and even a second read
  /// re-enters the shared_mutex (UB that can deadlock behind a queued
  /// writer). The lock-rank checker (UPI_SYNC_CHECKS) aborts on either.
  /// Destroy the cursor on the thread that opened it.
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;

  /// Direct top-k on the clustered attribute across buffer + every fracture
  /// (eager): each probed fracture contributes its first k surviving
  /// (non-deleted) rows off its top-k stream; the union is served
  /// confidence-sorted (ties by TupleId), truncated to k. Keeps a running
  /// k-th-score bound and — when pruning is enabled — prunes through the
  /// same summary decision as a PTQ, with the bound as its threshold (0
  /// until k scores are seen): a fracture whose max probability cannot beat
  /// the bound, or that cannot contain `value` at all, is skipped. The bound
  /// only ever skips fractures that cannot change the answer, so rows are
  /// identical with pruning on or off.
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;

  /// Secondary-index probe across buffer + every fracture (eager), served
  /// confidence-sorted. A column without a secondary index fails the cursor
  /// with InvalidArgument, buffered rows or not.
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      SecondaryAccessMode mode) const override;

  /// Full sequential sweep: RAM-buffered tuples first (no I/O), then the
  /// fracture list in order, deduplicated by TupleId with delete sets
  /// applied — `fn` runs exactly once per live tuple, with a view of its
  /// serialized bytes (valid during the call): a heap entry's, validated,
  /// or a buffered tuple serialized for the call. Opens each fracture's heap
  /// file like every other fractured read.
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;

  /// ScanTuples for a scan-filter on (column, value, qt): identical
  /// semantics over the tuples that could match, but fractures whose
  /// summary proves they cannot contain a qualifying alternative are
  /// skipped without any I/O. column < 0 means the clustered attribute.
  Status ScanTuplesMatching(
      int column, std::string_view value, double qt,
      const std::function<void(catalog::TupleView)>& fn) const override;

  // --- Fracture pruning (see core/fracture_summary.h) ---------------------

  /// The prune decision a query fan-out on (column, value, qt) would make
  /// right now, one slot per on-disk fracture in fan-out order: the main
  /// fracture first *when one exists*, then the deltas in list order (a
  /// table grown purely from flushes has no main slot). column < 0 means
  /// the clustered attribute. Respects options().enable_pruning
  /// (everything probed when disabled). Counts nothing.
  PruneSet ForQuery(int column, std::string_view value, double qt) const;

  /// Planner-facing expectation for the same decision: fracture count plus
  /// the probed fractures' heap bytes. RAM-only; counts nothing.
  PruneEstimate EstimatePrune(int column, std::string_view value,
                              double qt) const override;

  /// Whether a probe (column, value, qt) may find a row here (RAM only,
  /// counts nothing): false only when the buffer's index has no entry of
  /// (column, value) at qt or above and every fracture's summary rules the
  /// probe out (WhySkip). True when pruning is off, and for a column the
  /// index does not cover while the buffer holds a tuple. column < 0 means
  /// the clustered attribute.
  bool MayMatch(int column, std::string_view value, double qt) const;

  /// Cumulative fractures skipped / opened by executed query fan-outs since
  /// construction (bench/test telemetry).
  uint64_t fractures_pruned_total() const {
    return fractures_pruned_total_.load(std::memory_order_relaxed);
  }
  uint64_t fractures_probed_total() const {
    return fractures_probed_total_.load(std::memory_order_relaxed);
  }

  /// Every fracture's summary in fan-out order (main first when one exists),
  /// snapshotted under the shared lock.
  std::vector<std::shared_ptr<const FractureSummary>> summaries() const;

  // --- Planner statistics (RAM only, one shared-lock acquisition each) ----

  /// The fractures' sums (Nfrac counts the main; an empty table counts one)
  /// plus the buffered tuples. Priced cold, as Section 6.2's Cost_frac:
  /// Costinit per probed fracture, although at run time a fracture pays it
  /// only while its file handle is closed.
  PathStats Stats() const override;
  /// Whether `column` was declared a secondary column: every fracture and
  /// the buffer's index carry it, from the first write on.
  bool HasSecondary(int column) const override {
    return std::ranges::find(secondary_columns_, column) !=
           secondary_columns_.end();
  }
  int primary_column() const override { return options_.cluster_column; }
  /// Every fracture's Section 6.1 estimate, summed; the selectivity is over
  /// their B-tree heap entries.
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  /// Entry-weighted mean over the fractures' secondary indexes.
  double SecondaryAvgPointers(int column) const override;
  /// The combined k-th threshold: walks the shared bucket grid from the top,
  /// accumulating every fracture's expected entries per bucket.
  double EstimateTopKThreshold(std::string_view value,
                               size_t k) const override;
  /// Bumped whenever the cost-model inputs move: every Insert/Delete, flush,
  /// and merge install.
  uint64_t StatsEpoch() const override {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  // --- Tuning / introspection ---------------------------------------------

  UpiOptions* mutable_options() { return &options_; }
  const UpiOptions& options() const { return options_; }
  /// Number of on-disk fractures including the main one (the cost model's
  /// Nfrac).
  size_t num_fractures() const {
    std::shared_lock lock(mu_);
    return fractures_.size();
  }
  size_t buffered_inserts() const {
    std::shared_lock lock(mu_);
    return buffer_.size();
  }
  size_t buffered_deletes() const {
    std::shared_lock lock(mu_);
    return buffer_deletes_.size();
  }
  /// Serialized footprint of the RAM insert buffer (the byte watermark the
  /// maintenance flush policy checks).
  uint64_t buffered_bytes() const {
    std::shared_lock lock(mu_);
    return buffer_bytes_;
  }
  /// All three flush-watermark counters in one locked snapshot (the
  /// maintenance policy checks them on every write; one lock acquisition,
  /// not three).
  struct BufferWatermarks {
    size_t inserts = 0;
    uint64_t bytes = 0;
    size_t deletes = 0;
  };
  BufferWatermarks buffer_watermarks() const {
    std::shared_lock lock(mu_);
    return {buffer_.size(), buffer_bytes_, buffer_deletes_.size()};
  }
  uint64_t num_live_tuples() const;
  uint64_t size_bytes() const;
  /// Aggregated histogram estimate across the fractures: the fraction of
  /// all heap entries a PTQ(value, qt) scans — the Section 6.2 Selectivity
  /// MergePolicy prices with (over histogram totals, where EstimatePtq's
  /// selectivity is over B-tree entry counts).
  double EstimateSelectivity(std::string_view value, double qt) const;
  /// Unsynchronized structural accessors: only safe while no maintenance
  /// operation is in flight (single-threaded benches/tests, or between
  /// MaintenanceManager tasks). main() is nullptr when the table has no main
  /// fracture; fractures() is the list past it, the deltas oldest first.
  Upi* main() const {
    return has_main_ ? fractures_.front().upi.get() : nullptr;
  }
  std::span<const Fracture> fractures() const {
    return std::span<const Fracture>(fractures_).subspan(has_main_ ? 1 : 0);
  }
  /// Iterates the fracture list under the shared lock — safe while
  /// background maintenance runs (installed fractures are immutable; the list
  /// swap takes the exclusive lock).
  void ForEachFractureShared(const std::function<void(const Upi&)>& fn) const {
    std::shared_lock lock(mu_);
    for (const Fracture& f : fractures_) fn(*f.upi);
  }
  const catalog::Schema& schema() const override { return schema_; }
  const std::string& name() const override { return name_; }

 private:
  friend class FracturedPtqCursor;

  /// Creates no file: Build adds the main fracture.
  FracturedUpi(storage::DbEnv* env, std::string name, catalog::Schema schema,
               UpiOptions options, std::vector<int> secondary_columns);

  /// Fires maintenance_hook_ if set. Caller must NOT hold mu_.
  void FireMaintenanceHook(MaintenanceOp op, size_t merge_count) {
    if (maintenance_hook_) maintenance_hook_(op, merge_count);
  }
  /// Fires write_hook_ if set. Caller must NOT hold mu_.
  void FireWriteHook() {
    if (write_hook_) write_hook_();
  }

  /// True when `id` is in a flushed or a still-buffered delete set. Caller
  /// holds at least the shared lock.
  bool Deleted(catalog::TupleId id) const {
    return deleted_.contains(id) || buffer_deletes_.contains(id);
  }
  /// A fracture cursor's predicate that skips deleted rows, reading the
  /// row's id only. The caller holds at least the shared lock while the
  /// cursor is pulled.
  RowPredicate NotDeleted() const {
    return [this](const RowView& row) { return !Deleted(row.id); };
  }
  void RetuneFromBuffer();
  /// FlushBuffer body; caller holds the exclusive lock. Returns whether it
  /// wrote anything.
  Result<bool> FlushBufferLocked();
  /// The one body of MergeAll (kMergeAll) and MergeOldestFractures
  /// (kMergePartial, `count` oldest deltas).
  Status Merge(MaintenanceOp op, size_t count);
  /// Which fence proves a probe (column, value, qt) cannot match anything in
  /// `f` (kNone: probe it). Never skips when pruning is disabled or the
  /// summary is missing. Caller holds at least the shared lock; `column` is
  /// a concrete schema column index. Counting-free: the estimates use it.
  FractureSummary::SkipReason WhySkip(const Fracture& f, int column,
                                      std::string_view value, double qt) const;
  /// The pruning decision of every executed fan-out: WhySkip, plus counting
  /// the probe or the prune (and a Bloom reject) in the table atomics and
  /// the engine-wide registry counters. True means skip `f`.
  bool Prune(const Fracture& f, int column, std::string_view value,
             double qt) const;
  /// Maps the query convention (column < 0 = clustered attribute) to a
  /// concrete schema column.
  int ResolveColumn(int column) const {
    return column < 0 ? options_.cluster_column : column;
  }
  /// One entry of the insert buffer's index: an alternative of an indexed
  /// column of a buffered tuple. `value` and `tuple` point into buffer_,
  /// whose nodes never move, so they are valid while the tuple is buffered.
  struct BufferEntry {
    int column = 0;
    std::string_view value;
    double confidence = 0.0;  // quantized, as the heap key's
    catalog::TupleId id = 0;
    const catalog::Tuple* tuple = nullptr;

    /// The heap's order: column, value ascending, confidence descending,
    /// then TupleId.
    bool operator<(const BufferEntry& o) const {
      if (column != o.column) return column < o.column;
      if (int c = value.compare(o.value); c != 0) return c < 0;
      if (confidence != o.confidence) return confidence > o.confidence;
      return id < o.id;
    }
    /// The result row, serialized from the buffered tuple.
    PtqMatch Row() const {
      return PtqMatch{id, confidence, catalog::EncodedTuple(*tuple)};
    }
  };
  using BufferIndex = std::set<BufferEntry>;
  /// Calls `fn` with each index entry of buffered tuple `t`: one per
  /// alternative of an indexed column whose confidence is above zero (a
  /// zero-confidence alternative matches no probe).
  template <typename Fn>
  void ForEachBufferEntry(const catalog::Tuple& t, Fn fn) const;
  /// The buffer's entries of (column, value) with confidence >= qt, in the
  /// heap's order: one key range of the index. Empty for a column the index
  /// does not cover. Caller holds at least the shared lock.
  std::pair<BufferIndex::const_iterator, BufferIndex::const_iterator>
  BufferRange(int column, std::string_view value, double qt) const;
  /// Writes `ids` sequentially to a fresh delete-set file (cost accounting)
  /// and records it in delete_sets_. Caller holds the exclusive lock.
  Status PersistDeleteSet(const std::string& name,
                          std::vector<catalog::TupleId> ids);

  storage::DbEnv* env_;
  std::string name_;
  catalog::Schema schema_;
  UpiOptions options_;
  std::vector<int> secondary_columns_;

  /// Fired (without mu_) after a flush/merge completes; see SetMaintenanceHook.
  std::function<void(MaintenanceOp, size_t)> maintenance_hook_;
  /// Fired (without mu_) after a write; see SetWriteHook.
  std::function<void()> write_hook_;

  /// Guards fracture list, buffers, delete sets, and counters. Shared:
  /// queries/introspection. Exclusive: Insert/Delete (cheap RAM mutation),
  /// flush, and merge installation.
  mutable sync::SharedMutex mu_{sync::LockRank::kFracturedUpi};

  /// The fracture list in fan-out order: the main fracture first when
  /// has_main_, then the deltas oldest first.
  std::vector<Fracture> fractures_;
  bool has_main_ = false;
  int fracture_seq_ = 0;

  // Adaptive per-fracture tuning (empty workload = disabled).
  std::vector<WorkloadQuery> tuning_workload_;
  double tuning_budget_bytes_ = 0.0;

  // RAM state. The serialized size rides along with each buffered tuple so
  // the byte watermark never re-serializes on the write path.
  struct BufferedTuple {
    catalog::Tuple tuple;
    uint64_t bytes = 0;
  };
  std::unordered_map<catalog::TupleId, BufferedTuple> buffer_;
  BufferIndex buffer_index_;   // buffer_ in the heap's order
  uint64_t buffer_bytes_ = 0;  // serialized footprint of buffer_
  std::set<catalog::TupleId> buffer_deletes_;  // deletions not yet flushed
  // Union of all flushed delete sets (each fracture also persists its own).
  std::set<catalog::TupleId> deleted_;
  /// Each flushed delete set's file and the ids it lists. A merge releases
  /// the file once it has retired every one of those ids from deleted_.
  struct DeleteSet {
    storage::PageFile* file = nullptr;
    std::vector<catalog::TupleId> ids;
  };
  std::vector<DeleteSet> delete_sets_;
  std::atomic<uint64_t> stats_epoch_{0};
  mutable std::atomic<uint64_t> fractures_pruned_total_{0};
  mutable std::atomic<uint64_t> fractures_probed_total_{0};
  // Engine-wide pruning counters, cached from env_->metrics() at
  // construction (the registry outlives every table of its environment).
  obs::Counter* m_fractures_probed_ = nullptr;
  obs::Counter* m_fractures_pruned_ = nullptr;
  obs::Counter* m_bloom_rejects_ = nullptr;
};

}  // namespace upi::core
