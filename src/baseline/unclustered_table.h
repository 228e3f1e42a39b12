// The unclustered baseline: a heap file "clustered by an auto-increment
// sequence" (paper Section 7.2) with PII secondary indexes on uncertain
// discrete columns. Queries go through a PII index and fetch each qualifying
// tuple from the heap by RID — the random-seek pattern the UPI is built to
// avoid. Both reads return a core::ResultCursor (core/result_cursor.h): the
// PII probe streams its heap fetches, the top-k is eager.
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
#include "core/result_cursor.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"

namespace upi::baseline {

class UnclusteredTable {
 public:
  /// Heap and PII page size (the paper's BDB setup used 8 KB pages).
  static constexpr uint32_t kPageSize = 8192;

  /// The one way a table comes into being: appends all tuples sequentially
  /// and bulk-loads a PII index on each column in `pii_columns`. The whole
  /// input is checked before the first file is created: the PII columns
  /// (each in range, discrete and listed once), the ids, each record against
  /// a heap page and each PII entry against a PII page. So a rejected build
  /// leaves no file behind.
  static Result<std::unique_ptr<UnclusteredTable>> Build(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      std::vector<int> pii_columns, const std::vector<catalog::Tuple>& tuples);

  /// Appends the tuple and updates every PII index.
  Status Insert(const catalog::Tuple& tuple);

  /// Deletes by TupleId: reads the tuple, removes its PII entries, and
  /// punches a hole in the heap.
  Status Delete(catalog::TupleId id);

  /// PTQ through the PII index on `column`: the inverted list is read at
  /// open and sorted into RID order (bitmap-scan style), and each tuple's
  /// random heap fetch — the dominant cost of this baseline — happens only
  /// when the consumer pulls its row, so an early-exiting consumer skips
  /// the rest. Rows arrive in heap order. The cursor must not outlive the
  /// table.
  std::unique_ptr<core::ResultCursor> OpenPii(int column,
                                              std::string_view value,
                                              double qt) const;

  /// Top-k through the PII index on `column` (eager): the inverted list is
  /// probability-ordered, so only k entries are read and fetched.
  std::unique_ptr<core::ResultCursor> OpenTopK(int column,
                                               std::string_view value,
                                               size_t k) const;

  storage::HeapFile* heap() { return heap_.get(); }
  PiiIndex* pii(int column) const;
  uint64_t num_tuples() const { return id_to_rid_.size(); }
  uint64_t size_bytes() const;
  /// Monotonic counter bumped by every Insert/Delete (see Upi::stats_epoch).
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  const catalog::Schema& schema() const { return schema_; }
  Result<storage::Rid> RidOf(catalog::TupleId id) const;

 private:
  UnclusteredTable(std::string name, catalog::Schema schema,
                   storage::Pager heap);

  std::string name_;
  catalog::Schema schema_;
  std::unique_ptr<storage::HeapFile> heap_;
  std::map<int, std::unique_ptr<PiiIndex>> piis_;
  // RID lookup by TupleId. Kept in memory: a real system resolves this via
  // its primary-key index; charging it no I/O matches the paper's setup where
  // the auto-increment primary index is small and hot.
  std::unordered_map<catalog::TupleId, storage::Rid> id_to_rid_;
  std::atomic<uint64_t> stats_epoch_{0};
};

}  // namespace upi::baseline
