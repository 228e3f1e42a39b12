// The Continuous UPI (Section 5, Figure 2).
//
// A primary index for uncertain *continuous* attributes: an R-Tree (4 KB
// nodes) whose leaves carry U-Tree-style probability-bound parameters, plus a
// separate heap (64 KB pages) clustered by the hierarchical location of the
// owning R-Tree leaf. "Tuples in the same R-Tree leaf node reside in a single
// heap page and also neighboring R-Tree leaf nodes are mapped to neighboring
// heap pages, which achieves sequential access similar to a primary index."
//
// Concretely the heap is a B+Tree over (leaf-label ‖ TupleId) keys with 64 KB
// pages; NodeLocator (see rtree/node_path.h) keeps leaf labels aligned with
// spatial order across splits, and R-Tree leaf splits relocate the affected
// heap tuples (the paper's split/merge synchronization). Overflowing a heap
// page chains through normal B+Tree splits — the "overflow page" of Figure 2.
//
// Probabilistic range queries prune with the analytic radial-CDF bounds in
// the R-Tree entries (U-Tree pruning) and touch the heap only for qualifying
// tuples — in label order, hence (nearly) sequentially.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "core/upi.h"  // PtqMatch
#include "core/upi_key.h"
#include "rtree/rtree.h"
#include "storage/db_env.h"

namespace upi::core {

class ContinuousUpi {
 public:
  /// Figure 2's page sizes: small R-Tree nodes and large heap pages. The
  /// secondary indexes use the UPI's 8 KB pages.
  static constexpr uint32_t kRTreePageSize = 4096;
  static constexpr uint32_t kHeapPageSize = 65536;
  static constexpr uint32_t kSecondaryPageSize = 8192;

  /// The one way a continuous UPI comes into being: an STR bulk build of the
  /// R-Tree over the GAUSSIAN2D^p column `location_column`, with the heap
  /// written in leaf-label order (physically sequential). Secondary indexes
  /// on the discrete columns in `secondary_columns` are bulk-built
  /// alongside. The whole input is checked, and every file created, before
  /// the R-Tree's first pool write: the secondary columns, a TupleId two
  /// tuples share, and each tuple (its location value, its secondary values,
  /// its heap entry against a heap page and its secondary entries against a
  /// secondary page). So a rejected build leaves no file behind. The build
  /// ends by flushing the R-Tree, the one file it writes through the pool.
  static Result<std::unique_ptr<ContinuousUpi>> Build(
      storage::DbEnv* env, const std::string& name,
      const catalog::Schema& schema, int location_column,
      std::vector<int> secondary_columns,
      const std::vector<catalog::Tuple>& tuples);

  /// Inserts one observation; R-Tree leaf splits relocate heap tuples and
  /// repoint secondary entries (the Section 5 synchronization). The tuple is
  /// checked as a Build input is, before the first write, so a rejected
  /// tuple changes nothing. Deletion — and with it R-Tree node *merging* —
  /// is not implemented: the paper's continuous experiments (Figures 7–8)
  /// are query- and insert-only, and its future-work R+Tree discussion leaves
  /// the delete path open.
  Status Insert(const catalog::Tuple& tuple);

  /// Query 4: SELECT * WHERE Distance(location, center) <= radius,
  /// confidence >= qt.
  Status QueryRange(prob::Point center, double radius, double qt,
                    std::vector<PtqMatch>* out) const;

  /// Query 5: PTQ on a discrete secondary attribute (road segment), fetching
  /// tuples from the label-clustered heap.
  Status QueryBySecondary(int column, std::string_view value, double qt,
                          std::vector<PtqMatch>* out) const;

  rtree::RTree* rtree() const { return rtree_.get(); }
  btree::BTree* heap_tree() const { return heap_.get(); }
  uint64_t num_tuples() const { return heap_->num_entries(); }
  uint64_t size_bytes() const;
  int location_column() const { return location_column_; }

 private:
  /// Creates no file: Build gives the UPI its trees.
  ContinuousUpi(int location_column, std::vector<int> secondary_columns)
      : location_column_(location_column),
        secondary_columns_(std::move(secondary_columns)) {}

  /// The one check on a tuple, run by Build and Insert before their first
  /// write. It also encodes what they write: the serialized tuple into
  /// `bytes` and, per column in `secondary_columns`, the keys of its
  /// secondary entries into `secondary_keys`.
  static Status CheckTuple(
      const catalog::Tuple& tuple, int location_column,
      const std::vector<int>& secondary_columns, std::string* bytes,
      std::vector<std::vector<std::string>>* secondary_keys);

  Status MoveHeapTuple(catalog::TupleId id, uint64_t from_label,
                       uint64_t to_label);
  Status FetchByHeapKey(const std::string& heap_key,
                        catalog::EncodedTuple* out) const;
  rtree::ObjectEntry MakeEntry(const catalog::Tuple& tuple) const;

  const int location_column_;
  const std::vector<int> secondary_columns_;
  rtree::NodeLocator locator_;
  std::unique_ptr<rtree::RTree> rtree_;
  std::unique_ptr<btree::BTree> heap_;
  /// One per secondary_columns_ entry: (value, conf desc, id) -> heap key.
  std::vector<std::unique_ptr<btree::BTree>> secondaries_;
};

}  // namespace upi::core
