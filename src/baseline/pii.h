// PII — Probabilistic Inverted Index (Singh et al., ICDE 2007), the paper's
// baseline for discrete distributions (Section 7.2): an inverted index whose
// per-value entry lists are ordered by descending probability, stored here as
// a B+Tree keyed (value ASC, probability DESC, TupleID) — the same structure
// the paper's own implementation used on BDB. Entries point at heap RIDs, so
// every qualifying tuple costs a heap fetch; the query executor sorts the
// RIDs first (bitmap-scan style), which is also what the paper did.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/tuple.h"
#include "core/upi_key.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"

namespace upi::baseline {

class PiiIndex {
 public:
  Status Put(std::string_view value, double confidence, catalog::TupleId id,
             storage::Rid rid);
  Status Remove(std::string_view value, double confidence, catalog::TupleId id);

  struct Entry {
    core::UpiKey key;   // (value, confidence, id)
    storage::Rid rid;
  };

  /// Inverted-list scan: entries for `value` with confidence >= qt, in
  /// descending confidence order. `limit` optionally stops after N entries
  /// (top-k support).
  Status Collect(std::string_view value, double qt, std::vector<Entry>* out,
                 size_t limit = SIZE_MAX) const;

  uint64_t num_entries() const { return tree_->num_entries(); }
  uint64_t size_bytes() const { return tree_->size_bytes(); }
  btree::BTree* tree() { return tree_.get(); }

  /// Whether the entry under `key` (a core::EncodeUpiKey) fits a page of
  /// `page_size` bytes.
  static bool Fits(std::string_view key, uint32_t page_size);

  /// Bulk-builds an index into a new, empty file.
  class Builder {
   public:
    explicit Builder(storage::Pager pager) : builder_(pager) {}
    /// Keys (core::EncodeUpiKey) must arrive in strictly ascending order.
    Status Add(std::string_view key, storage::Rid rid);
    Result<std::unique_ptr<PiiIndex>> Finish();

   private:
    btree::BTreeBuilder builder_;
  };

 private:
  explicit PiiIndex(btree::BTree tree);

  static std::string EncodeRid(storage::Rid rid);
  static storage::Rid DecodeRid(std::string_view buf);

  std::unique_ptr<btree::BTree> tree_;
};

}  // namespace upi::baseline
