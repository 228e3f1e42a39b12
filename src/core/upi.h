// The UPI (Uncertain Primary Index) — the paper's primary contribution.
//
// The heap file is a B+Tree clustered on (clustered-attribute value ASC,
// combined probability DESC, TupleID), duplicating the full tuple once per
// alternative whose combined probability reaches the cutoff threshold C;
// remaining alternatives go to the cutoff index as pointers (Section 3.1,
// Algorithm 1). PTQs are answered with one index seek plus a sequential scan,
// consulting the cutoff index only when QT < C (Algorithm 2). Secondary
// indexes store multi-pointer entries exploited by tailored access
// (Section 3.2, Algorithm 3).
//
// A Upi is an AccessPath (core/access_path.h): the engine plans and runs a
// clustered table's queries against it directly. Every read returns a
// core::ResultCursor (core/result_cursor.h): the PTQ and the top-k stream
// Algorithm 2 off the heap, so a consumer that stops early never runs the
// cutoff phase; the secondary probe is eager.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "core/access_path.h"
#include "core/cutoff_index.h"
#include "core/fracture_summary.h"
#include "core/result_cursor.h"
#include "core/secondary_index.h"
#include "histogram/prob_histogram.h"
#include "histogram/selectivity.h"
#include "storage/db_env.h"

namespace upi::core {

struct UpiOptions {
  /// Column index of the clustered uncertain (discrete) attribute.
  int cluster_column = 0;
  /// The cutoff threshold C: alternatives with combined probability below
  /// this go to the cutoff index instead of the heap (except first
  /// alternatives, which always stay in the heap).
  double cutoff = 0.1;
  /// Max pointers stored per secondary-index entry (Section 3.2's tuning
  /// knob); < 0 means unlimited.
  int max_secondary_pointers = 10;
  /// Charge Costinit on every query for every file it touches. Off by
  /// default: the paper's measured single-table query times are below
  /// Costinit, so its prototype clearly kept table handles open across
  /// queries. With it off, a plain UPI never pays Costinit, and a fracture
  /// of a FracturedUpi pays it once per file per cold epoch: on the first
  /// touch of its heap, and on the first consult of its cutoff index, after
  /// the fracture is built and after each DbEnv::ColdCache() (which closes
  /// every handle). The planner and MergePolicy still price the paper's cold
  /// Cost_frac, one Costinit per probed fracture. Figure 3's bench enables
  /// this to match the Cost_cut formula's 2*(Costinit + H*Tseek) term.
  bool charge_open_per_query = false;
  /// Fractured tables only: consult per-fracture FractureSummary metadata
  /// (zone maps, Bloom fences, max-probability cutoffs) to skip fractures a
  /// query cannot match, instead of paying the full Nfrac fan-out tax. A
  /// partitioned table's shard summaries obey it too (engine/partition.h).
  /// Summaries are always *built* (they are cheap and immutable); this knob
  /// only gates consulting them, so flipping it never changes result rows —
  /// only how many shards and fractures are opened. Plain UPIs ignore it.
  bool enable_pruning = true;
};

/// The one check on a tuple's clustered column, run by every path that hands
/// a tuple to a UPI (Upi::Insert, Delete and Build, FracturedUpi::Insert):
/// the column must exist and hold a discrete distribution with at least one
/// alternative, the one Algorithm 1 always keeps in the heap.
Status CheckClusteredValue(const catalog::Tuple& tuple, int cluster_column);

/// The one check that a bulk input names each TupleId once, run by every
/// bulk build (Upi, ContinuousUpi, UnclusteredTable, and a partitioned
/// table before it routes its input) before it creates a file, and on the
/// ids of a checkpoint's snapshot.
Status CheckDistinctIds(std::vector<catalog::TupleId> ids);
Status CheckDistinctIds(const std::vector<catalog::Tuple>& tuples);

class UpiPtqCursor;

class Upi final : public AccessPath {
 public:
  /// Heap, cutoff and secondary-index page size (the paper's BDB setup used
  /// 8 KB pages).
  static constexpr uint32_t kPageSize = 8192;

  /// The one way a UPI comes into being: bulk-builds its heap, cutoff index,
  /// secondary indexes on `secondary_columns` and histograms from `tuples`,
  /// physically sequential like a freshly clustered table (a UPI that Insert
  /// will maintain starts from zero tuples). The input is checked before the
  /// first file is created: the secondary columns, a TupleId two tuples
  /// share, each tuple's clustered column, and a heap entry too large for a
  /// page. Any later failure drops the files the build created, so a failed
  /// build leaves no file behind.
  /// Pages go straight to the device: the new UPI has no dirty pool frame.
  /// Pass `fracture` to build one fracture of a FracturedUpi: the build
  /// feeds its pruning summary, and reads keep the fracture's file handles
  /// open across queries (see OpenFile).
  static Result<std::unique_ptr<Upi>> Build(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      UpiOptions options, std::vector<int> secondary_columns,
      const std::vector<catalog::Tuple>& tuples,
      FractureSummary::Builder* fracture = nullptr);

  /// Checks secondary-index columns against `schema`: each must exist, be
  /// discrete, and appear once. Every bulk build runs it before creating any
  /// file: Build, FracturedUpi::Build (also without tuples),
  /// ContinuousUpi::Build, and UnclusteredTable::Build on its PII columns.
  static Status CheckSecondaryColumns(const catalog::Schema& schema,
                                      const std::vector<int>& columns);

  /// Sort-merges fractures of one table into one new fracture named `name`
  /// (Section 4.3): a k-way merge of every source heap, cutoff index and
  /// secondary index into freshly bulk-built ones, leaving out each tuple
  /// whose id is in `deleted` (the ids it left out are added to
  /// `filtered_ids`). `options` are the table's current ones; the merged
  /// cutoff is the highest of theirs and every source's, so the merge only
  /// demotes heap entries into the cutoff index. Feeds `summary` from the
  /// merge streams. Like Build, it writes no page through the pool, and a
  /// failed merge drops the files it created.
  static Result<std::unique_ptr<Upi>> Merge(
      const std::vector<const Upi*>& sources, std::string name,
      UpiOptions options, const std::set<catalog::TupleId>& deleted,
      std::set<catalog::TupleId>* filtered_ids,
      FractureSummary::Builder* summary);

  /// Destroys a retired UPI and drops its heap, cutoff and secondary files
  /// with DbEnv::DropFile: their pool frames and RAM pages go. The caller
  /// guarantees no reader can still reach `upi` and that it was never
  /// modified after it was built, so it has no dirty frame (a dirty frame
  /// aborts rather than dropping unwritten data).
  static void Release(std::unique_ptr<Upi> upi);

  /// Algorithm 1. Maintains heap, cutoff index, secondaries and histogram.
  Status Insert(const catalog::Tuple& tuple) override;

  /// Deletion (Section 3.1: "handled similarly, deleting entries from the
  /// heap file or cutoff index depends on the probability").
  Status Delete(const catalog::Tuple& tuple) override;

  /// Algorithm 2: SELECT * WHERE cluster_attr = value THRESHOLD qt, one
  /// seek and a sequential scan pulled a row at a time. Rows arrive heap
  /// hits first (descending confidence), then cutoff-pointer hits; the
  /// cutoff phase runs, and opens the cutoff index's file, only when QT < C
  /// and the consumer drains past the heap phase. The cursor reads live
  /// pages: it must not outlive this UPI or be used across a write to it.
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;

  /// Top-k on the clustered attribute: the same stream with no threshold,
  /// limited to k rows, so scanning stops after k results — the
  /// early-termination benefit Section 3.1 describes. The cutoff index is
  /// consulted only when fewer than k heap entries qualify.
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;

  /// SELECT * WHERE sec_col = value THRESHOLD qt via a secondary index,
  /// fetching tuple data from the heap in heap order (Algorithm 3 when
  /// tailored). Eager: every row is fetched at open.
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      SecondaryAccessMode mode) const override;

  /// Every tuple once, in heap order: the heap duplicates a tuple once per
  /// (non-cutoff) alternative, and the sweep reports the first copy. Opens
  /// the heap file as OpenPtq does (and as the planner's ScanMs prices it).
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;

  // --- Planner statistics (RAM only) ---------------------------------------

  PathStats Stats() const override;
  bool HasSecondary(int column) const override {
    return secondary(column) != nullptr;
  }
  int primary_column() const override { return options_.cluster_column; }
  /// Histogram-based estimate for a PTQ on this UPI (Section 6.1).
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  /// Estimated number of secondary-index entries matching (value, qt) on
  /// `column` — the pointer count the planner feeds into the Section 6.3
  /// sigmoid. Zero when no secondary index exists.
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value,
                               size_t k) const override;
  /// Bumped by every Insert/Delete.
  uint64_t StatsEpoch() const override {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  // --- Introspection -------------------------------------------------------

  const catalog::Schema& schema() const override { return schema_; }
  const UpiOptions& options() const { return options_; }
  const std::string& name() const override { return name_; }
  btree::BTree* heap_tree() const { return heap_.get(); }
  CutoffIndex* cutoff_index() const { return cutoff_.get(); }
  SecondaryIndex* secondary(int column) const;
  const histogram::ProbHistogram& prob_histogram() const { return histogram_; }
  /// Probability histogram of a secondary column (maintained alongside the
  /// secondary index); nullptr when no secondary index exists on `column`.
  const histogram::ProbHistogram* secondary_histogram(int column) const;
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t heap_entries() const { return heap_->num_entries(); }
  uint64_t size_bytes() const;

  /// Enumerates all heap entries in key order (full-table scans and tests):
  /// fn(encoded_key, serialized_tuple). Opens the heap file like a query.
  void ScanHeap(const std::function<void(std::string_view, std::string_view)>& fn) const;

  /// Splits a tuple's clustered-column alternatives per Algorithm 1 under
  /// `options`' cluster column and cutoff.
  struct AltPartition {
    std::vector<SecondaryPointer> heap_alts;    // duplicated in the heap
    std::vector<SecondaryPointer> cutoff_alts;  // pointers in cutoff index
  };
  static AltPartition PartitionAlternatives(const catalog::Tuple& tuple,
                                            const UpiOptions& options);

 private:
  friend class UpiPtqCursor;

  /// Takes finished structures (Build and Merge); creates no file.
  Upi(storage::DbEnv* env, std::string name, catalog::Schema schema,
      UpiOptions options, btree::BTree heap, std::unique_ptr<CutoffIndex> cutoff,
      std::map<int, std::unique_ptr<SecondaryIndex>> secondaries,
      histogram::ProbHistogram histogram,
      std::map<int, histogram::ProbHistogram> sec_histograms,
      uint64_t num_tuples, bool fracture);

  Status InsertSecondaryEntries(const catalog::Tuple& tuple,
                                const AltPartition& part);
  Status RemoveSecondaryEntries(const catalog::Tuple& tuple);
  /// Fetches the tuple stored under `heap_key` into *out: through `sorted`
  /// when the caller's keys arrive in heap order, else with a descent of its
  /// own.
  Status FetchHeapTuple(std::string_view heap_key, btree::SortedLookup* sorted,
                        catalog::EncodedTuple* out) const;
  storage::PageFile* heap_file() const { return heap_->pager()->file(); }
  /// The one Costinit rule for a read touching `file` (this UPI's heap or
  /// cutoff file): with charge_open_per_query every touch pays (a query
  /// touches each file once); otherwise a fracture pays only if the file's
  /// handle is closed (PageFile::OpenIfClosed), and a plain UPI never pays.
  void OpenFile(storage::PageFile* file) const;

  storage::DbEnv* env_;
  std::string name_;
  catalog::Schema schema_;
  UpiOptions options_;

  std::unique_ptr<btree::BTree> heap_;
  std::unique_ptr<CutoffIndex> cutoff_;
  std::map<int, std::unique_ptr<SecondaryIndex>> secondaries_;
  histogram::ProbHistogram histogram_;
  /// One probability histogram per secondary column (same bucketing as the
  /// clustered histogram; all alternatives recorded as non-first).
  std::map<int, histogram::ProbHistogram> sec_histograms_;
  uint64_t num_tuples_ = 0;
  std::atomic<uint64_t> stats_epoch_{0};
  /// A fracture of a FracturedUpi: reads keep this UPI's file handles open
  /// across queries (see OpenFile).
  const bool fracture_;
};

}  // namespace upi::core
