// The Cutoff Index (Section 3.1).
//
// Alternatives with combined probability below the cutoff threshold C are not
// duplicated in the UPI heap; instead the cutoff index stores, under the same
// (attr ASC, prob DESC, TupleID) key order as the heap, a *pointer*: the UPI
// key of the tuple's first (highest-probability) alternative, which is always
// present in the heap. Queries with QT < C follow these pointers (Algorithm
// 2); queries with QT >= C never touch this structure.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/tuple.h"
#include "core/upi_key.h"
#include "storage/db_env.h"

namespace upi::core {

class CutoffIndex {
 public:
  /// Adds a pointer entry: alternative (attr, prob) of tuple `id`, pointing
  /// at the heap entry `first_key` (the tuple's first alternative).
  Status Add(std::string_view attr, double prob, catalog::TupleId id,
             const std::string& first_key);

  Status Remove(std::string_view attr, double prob, catalog::TupleId id);

  /// One pointer retrieved from the cutoff index.
  struct PointerEntry {
    UpiKey entry;           // the cutoff alternative (attr, prob, id)
    std::string heap_key;   // encoded UPI key of the first alternative
  };

  /// Collects pointers for `attr` with probability >= qt, in descending
  /// probability order (the Algorithm 2 inner loop's index scan).
  Status CollectPointers(std::string_view attr, double qt,
                         std::vector<PointerEntry>* out) const;

  /// The index's file (a query opens it before consulting the index).
  storage::PageFile* file() const { return tree_->pager()->file(); }

  btree::BTree* tree() { return tree_.get(); }
  const btree::BTree* tree() const { return tree_.get(); }
  uint64_t num_entries() const { return tree_->num_entries(); }
  uint64_t size_bytes() const { return tree_->size_bytes(); }

  /// Streaming bulk construction, the one way a cutoff index is made (UPI
  /// builds and merges write whole cutoff indexes sequentially).
  class Builder {
   public:
    /// Builds into `pager`'s file, which the caller created empty.
    explicit Builder(storage::Pager pager);
    /// Adds the pointer entry under encoded UPI key `key` (attr, prob, id),
    /// pointing at the heap entry `first_key`. Keys must arrive in ascending
    /// order.
    Status Add(std::string_view key, std::string_view first_key);
    Result<std::unique_ptr<CutoffIndex>> Finish();

   private:
    btree::BTreeBuilder builder_;
  };

 private:
  explicit CutoffIndex(btree::BTree tree);

  std::unique_ptr<btree::BTree> tree_;
};

}  // namespace upi::core
