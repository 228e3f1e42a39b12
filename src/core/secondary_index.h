// Secondary indexes over UPIs (Section 3.2).
//
// Because the UPI heap holds one copy of a tuple per (non-cutoff) alternative
// of the clustered attribute, a secondary-index entry stores *multiple*
// pointers — the clustered-attribute alternatives under which the tuple can
// be found — instead of the single RowID of a conventional secondary index
// (paper Table 5). Algorithm 3 ("Tailored Secondary Index Access") then picks
// pointers so that many result tuples are fetched from the same heap region.
//
// Entries are keyed (secondary value ASC, confidence DESC, TupleID), like the
// heap. A pointer-count limit trades storage for tailoring opportunity; a
// <cutoff> flag records that further alternatives exist only in the cutoff
// index (Table 5's "<cutoff>" marker).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/tuple.h"
#include "core/upi_key.h"
#include "storage/db_env.h"

namespace upi::core {

/// One pointer into the UPI heap: a clustered-attribute alternative of the
/// tuple (the TupleID comes from the entry key).
struct SecondaryPointer {
  std::string attr;
  double prob = 0.0;  // combined probability, as stored in the heap key

  bool operator==(const SecondaryPointer& o) const {
    return attr == o.attr && prob == o.prob;
  }
};

struct SecondaryEntry {
  UpiKey key;  // (secondary value, confidence, TupleID)
  std::vector<SecondaryPointer> pointers;
  bool has_cutoff = false;
};

class SecondaryIndex {
 public:
  /// Inserts/replaces the entry for (sec_value, confidence, id). `pointers`
  /// must be the tuple's heap-resident alternatives in descending
  /// probability; the limit is applied here.
  Status Put(std::string_view sec_value, double confidence, catalog::TupleId id,
             const std::vector<SecondaryPointer>& pointers, bool has_cutoff);

  Status Remove(std::string_view sec_value, double confidence,
                catalog::TupleId id);

  /// Collects entries for `sec_value` with confidence >= qt (descending).
  Status Collect(std::string_view sec_value, double qt,
                 std::vector<SecondaryEntry>* out) const;

  void ChargeOpen() { file()->ChargeOpen(); }
  storage::PageFile* file() const { return tree_->pager()->file(); }

  int max_pointers() const { return max_pointers_; }
  /// Average heap pointers stored per entry (after the limit), >= 1. Tracked
  /// incrementally over Put/Builder::Add so the planner's tailored-access
  /// model reads it without I/O; deletions are not subtracted, so after heavy
  /// churn it is an estimate.
  double avg_pointers() const {
    return put_entries_ == 0
               ? 1.0
               : static_cast<double>(put_pointers_) /
                     static_cast<double>(put_entries_);
  }
  uint64_t num_entries() const { return tree_->num_entries(); }
  uint64_t size_bytes() const { return tree_->size_bytes(); }
  btree::BTree* tree() { return tree_.get(); }

  /// Pointer-list codec: a flag byte (has_cutoff), the pointer count, then
  /// each pointer's attribute and probability. Appends to `out`.
  static void EncodePointers(std::span<const SecondaryPointer> pointers,
                             bool has_cutoff, std::string* out);
  static Status DecodePointers(std::string_view buf,
                               std::vector<SecondaryPointer>* pointers,
                               bool* has_cutoff);
  /// Appends `pointers` as an entry stores them under `max_pointers` (< 0:
  /// unlimited): a list longer than the limit keeps its first `max_pointers`
  /// pointers and is flagged like a cutoff, since the rest are reachable
  /// only through the heap's first entry.
  static void EncodeLimitedPointers(std::span<const SecondaryPointer> pointers,
                                    bool has_cutoff, int max_pointers,
                                    std::string* out);
  /// The pointer count of an encoded list, read without decoding it.
  static Result<uint32_t> PointerCount(std::string_view buf);

  /// Streaming bulk construction, the one way a secondary index is made.
  class Builder {
   public:
    /// Builds into `pager`'s file, which the caller created empty.
    Builder(storage::Pager pager, int max_pointers);
    /// Adds the entry under encoded UPI key `key` (secondary value,
    /// confidence, id); `pointers` is its pointer list as
    /// EncodeLimitedPointers wrote it under this index's limit. Keys must
    /// arrive in ascending order.
    Status Add(std::string_view key, std::string_view pointers);
    Result<std::unique_ptr<SecondaryIndex>> Finish();

   private:
    btree::BTreeBuilder builder_;
    int max_pointers_;
    uint64_t put_entries_ = 0;
    uint64_t put_pointers_ = 0;
  };

 private:
  SecondaryIndex(btree::BTree tree, int max_pointers);

  static uint64_t LimitedCount(size_t num_pointers, int max_pointers) {
    return max_pointers >= 0 && num_pointers > static_cast<size_t>(max_pointers)
               ? static_cast<uint64_t>(max_pointers)
               : static_cast<uint64_t>(num_pointers);
  }

  std::unique_ptr<btree::BTree> tree_;
  int max_pointers_;
  uint64_t put_entries_ = 0;
  uint64_t put_pointers_ = 0;
};

}  // namespace upi::core
