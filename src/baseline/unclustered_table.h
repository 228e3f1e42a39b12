// The unclustered baseline: a heap file "clustered by an auto-increment
// sequence" (paper Section 7.2) with PII secondary indexes on uncertain
// discrete columns. Queries go through a PII index and fetch each qualifying
// tuple from the heap by RID — the random-seek pattern the UPI is built to
// avoid.
//
// An UnclusteredTable is an AccessPath (core/access_path.h): PTQs and top-k
// probe the PII index on its primary column, secondary probes the PII index
// on the requested column, and the planner's estimates read one probability
// histogram per PII column, kept in step with every Insert and Delete. Every
// read returns a core::ResultCursor (core/result_cursor.h): the PII probe
// streams its heap fetches, the top-k and the secondary probe are eager.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/pii.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "core/access_path.h"
#include "histogram/prob_histogram.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"

namespace upi::baseline {

class UnclusteredTable final : public core::AccessPath {
 public:
  /// Heap and PII page size (the paper's BDB setup used 8 KB pages).
  static constexpr uint32_t kPageSize = 8192;

  /// The one way a queryable table comes into being: appends all tuples
  /// sequentially, bulk-loads a PII index on each column in `pii_columns`
  /// and fills one probability histogram per PII column. PTQs and top-k
  /// probe `primary_column`, which must be among `pii_columns`. The whole
  /// input is checked before the first file is created: the primary column,
  /// the PII columns (each in range, discrete and listed once), the ids, each
  /// record against a heap page and each PII entry against a PII page. So a
  /// rejected build leaves no file behind.
  static Result<std::unique_ptr<UnclusteredTable>> Build(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      int primary_column, std::vector<int> pii_columns,
      const std::vector<catalog::Tuple>& tuples);

  /// A bare heap with no PII index, the base table a secondary U-tree
  /// (baseline/secondary_utree.h) points into. It has no primary probe: its
  /// PTQ and top-k fail, so it is never a Database table. Checked and built
  /// like Build.
  static Result<std::unique_ptr<UnclusteredTable>> BuildHeap(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      const std::vector<catalog::Tuple>& tuples);

  /// Appends the tuple and updates every PII index and histogram.
  /// AlreadyExists when the table holds a tuple with the same id.
  Status Insert(const catalog::Tuple& tuple) override;

  /// Deletes by TupleId: reads the tuple, removes its PII entries and
  /// histogram counts, and punches a hole in the heap.
  Status Delete(catalog::TupleId id);
  Status Delete(const catalog::Tuple& tuple) override {
    return Delete(tuple.id());
  }

  /// PTQ through the PII index on `column`: the inverted list is read at
  /// open and sorted into RID order (bitmap-scan style), and each tuple's
  /// random heap fetch — the dominant cost of this baseline — happens only
  /// when the consumer pulls its row, so an early-exiting consumer skips
  /// the rest. Rows arrive in heap order. The cursor must not outlive the
  /// table.
  std::unique_ptr<core::ResultCursor> OpenPii(int column,
                                              std::string_view value,
                                              double qt) const;

  /// OpenPii on the primary column.
  std::unique_ptr<core::ResultCursor> OpenPtq(std::string_view value,
                                              double qt) const override {
    return OpenPii(primary_column_, value, qt);
  }

  /// Top-k through the PII index on the primary column (eager): the
  /// inverted list is probability-ordered, so only k entries are read and
  /// fetched.
  std::unique_ptr<core::ResultCursor> OpenTopK(std::string_view value,
                                               size_t k) const override;

  /// The PII probe on `column`, drained at open (eager, as every design's
  /// secondary probe) and served in confidence order. PII entries carry a
  /// single RID, so there is nothing to tailor: `mode` is ignored.
  std::unique_ptr<core::ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;

  /// Every tuple once, in heap order.
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;

  // --- Planner statistics (RAM only) ---------------------------------------

  core::PathStats Stats() const override;
  bool HasSecondary(int column) const override {
    return pii(column) != nullptr;
  }
  int primary_column() const override { return primary_column_; }
  /// PII entries expected on the primary column; the whole qualifying set
  /// is heap fetches (no cutoff pointers).
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  /// PII entries expected on `column`; zero when it has no PII index.
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double EstimateTopKThreshold(std::string_view value,
                               size_t k) const override;
  /// Bumped by every Insert/Delete.
  uint64_t StatsEpoch() const override {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  // --- Introspection -------------------------------------------------------

  const std::string& name() const override { return name_; }
  const catalog::Schema& schema() const override { return schema_; }
  storage::HeapFile* heap() const { return heap_.get(); }
  PiiIndex* pii(int column) const;
  uint64_t num_tuples() const { return id_to_rid_.size(); }
  Result<storage::Rid> RidOf(catalog::TupleId id) const;

 private:
  UnclusteredTable(std::string name, catalog::Schema schema,
                   int primary_column, storage::Pager heap);

  /// Build without the primary-column check (BuildHeap passes -1 and no
  /// PII column).
  static Result<std::unique_ptr<UnclusteredTable>> BuildTable(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      int primary_column, const std::vector<int>& pii_columns,
      const std::vector<catalog::Tuple>& tuples);

  std::string name_;
  catalog::Schema schema_;
  int primary_column_;
  std::unique_ptr<storage::HeapFile> heap_;
  std::map<int, std::unique_ptr<PiiIndex>> piis_;
  /// One per PII column: every alternative's combined probability, recorded
  /// as non-first (a PII probe reads every alternative alike).
  std::map<int, histogram::ProbHistogram> histograms_;
  // RID lookup by TupleId. Kept in memory: a real system resolves this via
  // its primary-key index; charging it no I/O matches the paper's setup where
  // the auto-increment primary index is small and hot.
  std::unordered_map<catalog::TupleId, storage::Rid> id_to_rid_;
  std::atomic<uint64_t> stats_epoch_{0};
};

}  // namespace upi::baseline
