// Streaming bulk loader: feeds strictly ascending (key, value) pairs and
// produces a B+Tree whose leaves are physically sequential — the layout a
// freshly clustered (or freshly merged, Section 4.3) UPI has, and the reason
// a new UPI answers range queries with pure sequential I/O.
//
// Finished pages are written out in sequential batches directly to the page
// file (double-buffered merge output), not through the buffer pool: a bulk
// build or merge must not pay per-page eviction seeks that no real
// sort-merge pays. Each finished page's bytes become its device image as
// they are, without a copy.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "btree/btree.h"

namespace upi::btree {

class BTreeBuilder {
 public:
  /// `fill_factor` is the fraction of each page filled before starting the
  /// next one; < 1.0 leaves slack for later inserts.
  explicit BTreeBuilder(storage::Pager pager, double fill_factor = 0.9);

  /// Keys must arrive in strictly ascending order.
  Status Add(std::string_view key, std::string_view value);

  /// Flushes all partial nodes and returns the finished tree.
  Result<BTree> Finish();

 private:
  struct Level {
    Node node;              // internal node under construction
    std::string first_key;  // smallest key under this node
  };
  struct PendingPage {
    storage::PageId id;
    storage::PageImage image;
  };

  /// Queues a completed page; batches are written out sorted by page id so
  /// consecutive output pages transfer sequentially.
  void QueuePage(storage::PageId id, std::string bytes);
  void WritePage(storage::PageId id, const Node& node);
  /// Queues the leaf under construction, linked to `right_sibling`.
  void WriteLeaf(storage::PageId right_sibling);
  void FlushPending();
  storage::PageId AllocAndWrite(const Node& node);
  void AddToLevel(size_t level, const std::string& first_key,
                  storage::PageId child);

  storage::Pager pager_;
  size_t fill_bytes_;
  bool started_ = false;
  bool finished_ = false;
  uint64_t count_ = 0;
  uint64_t leaf_pages_ = 0;
  std::string last_key_;

  // The leaf under construction, as its serialized entries: appending costs
  // no allocation per entry, and its size is the page's running byte count.
  std::string leaf_entries_;
  uint32_t leaf_count_ = 0;
  std::string leaf_first_key_;
  storage::PageId leaf_page_ = storage::kInvalidPage;
  std::vector<Level> levels_;  // index 0 unused (leaf level handled above)
  std::vector<PendingPage> pending_;
};

}  // namespace upi::btree
