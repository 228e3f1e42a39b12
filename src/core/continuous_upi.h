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

#include <map>
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

struct ContinuousUpiOptions {
  int location_column = 0;           // GAUSSIAN2D^p column clustered on
  uint32_t rtree_page_size = 4096;   // Figure 2: small R-Tree pages
  uint32_t heap_page_size = 65536;   // Figure 2: large heap pages
  uint32_t secondary_page_size = 8192;
  bool charge_open_per_query = false;
};

class ContinuousUpi {
 public:
  ContinuousUpi(storage::DbEnv* env, std::string name, catalog::Schema schema,
                ContinuousUpiOptions options);

  /// STR bulk build; the heap is written in leaf-label order (physically
  /// sequential). Secondary indexes on the discrete columns in
  /// `secondary_columns` are bulk-built alongside. Every input is checked
  /// before the first file is created: the secondary columns, a TupleId two
  /// tuples share, each tuple's location value and secondary values (each
  /// discrete), a heap entry too large for a heap page, and a secondary
  /// entry too large for a secondary page. The build ends by flushing only
  /// this UPI's files.
  static Result<std::unique_ptr<ContinuousUpi>> Build(
      storage::DbEnv* env, std::string name, catalog::Schema schema,
      ContinuousUpiOptions options, std::vector<int> secondary_columns,
      const std::vector<catalog::Tuple>& tuples);

  Status AddSecondaryColumn(int column);

  /// Inserts one observation; R-Tree leaf splits relocate heap tuples and
  /// repoint secondary entries (the Section 5 synchronization). Deletion —
  /// and with it R-Tree node *merging* — is not implemented: the paper's
  /// continuous experiments (Figures 7–8) are query- and insert-only, and its
  /// future-work R+Tree discussion leaves the delete path open.
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
  const ContinuousUpiOptions& options() const { return options_; }

 private:
  struct ContinuousSecondary {
    storage::PageFile* file;
    std::unique_ptr<btree::BTree> tree;  // (value, conf desc, id) -> heap key
  };

  Status MoveHeapTuple(catalog::TupleId id, uint64_t from_label,
                       uint64_t to_label);
  Status FetchByHeapKey(const std::string& heap_key, catalog::Tuple* out) const;
  rtree::ObjectEntry MakeEntry(const catalog::Tuple& tuple) const;

  storage::DbEnv* env_;
  std::string name_;
  catalog::Schema schema_;
  ContinuousUpiOptions options_;

  rtree::NodeLocator locator_;
  std::unique_ptr<rtree::RTree> rtree_;
  storage::PageFile* rtree_file_ = nullptr;
  storage::PageFile* heap_file_ = nullptr;
  std::unique_ptr<btree::BTree> heap_;
  std::map<int, ContinuousSecondary> secondaries_;
};

}  // namespace upi::core
