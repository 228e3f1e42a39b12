// Disk-paged B+Tree over byte-string keys (BerkeleyDB-style memcmp order).
//
// This is the substrate under every discrete-distribution structure in the
// paper: the UPI heap file itself (clustered on attr ‖ prob-desc ‖ TupleID),
// the cutoff index, secondary indexes, and the PII baseline. Keys are unique;
// Put has upsert semantics (like BDB's DB->put without DUPSORT — composite
// keys carry the TupleID, so logical duplicates are distinct keys here).
//
// Structural behaviour intentionally mirrors what the paper depends on:
//  * node splits allocate pages at the end of the file (or from the free
//    list), so random-order insertion physically scatters the leaf chain —
//    the fragmentation of Section 4.1;
//  * bulk loading (BTreeBuilder) writes leaves in physical order, so a
//    freshly built or merged UPI scans sequentially;
//  * underflowing nodes merge with a sibling, freeing pages for reuse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "btree/node.h"
#include "common/status.h"
#include "storage/pager.h"

namespace upi::btree {

class BTree;

/// \brief Forward iterator positioned on a leaf entry.
///
/// Contract:
///  * The cursor keeps its current leaf's page image (storage::PageImage),
///    never a pin: a pin held while a consumer stalls, or across a gather
///    hand-off, would block eviction. The image is shared with the pool and
///    the device, not copied, and its bytes never change, so the cursor
///    reads on even after its file is dropped. It is validated
///    (NodeView::Parse) when loaded, and a leaf that fails validation ends
///    the cursor (Valid() turns false).
///  * key() and value() view that image. They are valid until the next call
///    to Next(); moving or copying the cursor keeps its position.
///  * Each leaf costs one pool fetch when the cursor reaches it; Seek and
///    SeekToFirst fetch the first leaf once in their descent and once more
///    here (the second fetch is what promotes it in the midpoint LRU).
///  * It must not be used across tree modifications.
class Cursor {
 public:
  Cursor() = default;

  bool Valid() const { return valid_; }
  std::string_view key() const { return entry_.key; }
  std::string_view value() const { return entry_.value; }
  /// Advances to the next entry in key order (following the leaf chain).
  void Next();

  /// Enables leaf read-ahead: every `pages` leaves, the next `pages` leaves
  /// of the chain are fetched in one sequential burst. This models the
  /// buffered streaming a storage engine does during merges — without it, a
  /// k-way merge would charge one head movement per page as it alternates
  /// between source files, which no real merge does (Section 4.3's merge
  /// costs "about the same as sequentially reading all files"). A prefetched
  /// page is only fetched and its right-sibling field read.
  void SetReadahead(uint32_t pages) { readahead_ = pages; }

 private:
  friend class BTree;
  /// Positions on the first entry >= `key` of leaf `leaf_id`, moving right
  /// if there is none.
  Cursor(const BTree* tree, PageId leaf_id, std::string_view key);
  /// Takes leaf `id`'s image into leaf_ and parses it into *view; false (and
  /// the cursor invalid) if it is not a valid leaf.
  bool LoadLeaf(PageId id, NodeView* view);
  /// Moves right past exhausted leaves, then decodes the entry at offset_.
  void SkipForwardToValid();
  void MaybePrefetch();

  const BTree* tree_ = nullptr;
  storage::PageImage leaf_;  // the current leaf page's image
  PageId right_sibling_ = kInvalidPage;
  uint32_t count_ = 0;  // entries on the current leaf
  uint32_t idx_ = 0;
  size_t offset_ = 0;  // byte offset in leaf_ of the next entry to decode
  // The current entry, decoded in place: views into leaf_'s bytes, which a
  // copied or moved cursor shares, so they stay valid.
  EntryView entry_;
  bool valid_ = false;
  uint32_t readahead_ = 0;
  uint32_t prefetch_remaining_ = 0;
};

/// \brief Forward point lookups for keys that arrive in ascending order: the
/// bitmap-scan style fetch of a sorted pointer list.
///
/// Contract (Cursor's, for point lookups):
///  * It keeps its current leaf's page image, never a pin, and must not be
///    used across tree modifications.
///  * Keys must not descend from one Get to the next (UPI_CHECK); a repeated
///    key is answered again.
///  * A key below the kept leaf's upper fence (the separator that bounds
///    the leaf on its root-to-leaf path) is answered from its image, walking
///    forward from the previous key's position. A key beyond the kept leaf
///    starts a fresh descent. So each leaf change costs one descent of
///    height() pool fetches, where BTree::Get pays one descent per key.
///  * It remembers the page of the tree it last read from the device, and
///    hands it to the fetch of each new leaf (Pager::Get's `after`): a leaf
///    a short forward gap past that page is read together with the gap in
///    one access (PageFile::Read). A leaf found in the pool clears it, so
///    the cursor never reads forward from a position it did not read to.
class SortedLookup {
 public:
  explicit SortedLookup(const BTree* tree) : tree_(tree) {}

  /// Finds exactly `key`: OK with *value viewing the kept leaf (valid until
  /// the next Get), or NotFound.
  Status Get(std::string_view key, std::string_view* value);

 private:
  /// Descends from the root to the leaf covering `key` and keeps its image.
  Status Descend(std::string_view key);

  const BTree* tree_;
  storage::PageImage leaf_;  // the current leaf page's image; null until
                             // the first descent
  // Exclusive upper bound of the keys the kept leaf covers; empty on the
  // rightmost root-to-leaf path (a real separator is never empty).
  std::string upper_;
  uint32_t count_ = 0;  // entries on the kept leaf
  uint32_t idx_ = 0;    // first entry not below the previous key
  size_t offset_ = 0;   // its byte offset in leaf_
  std::string last_key_;  // empty sorts first, so any first key ascends
  PageId prev_read_ = kInvalidPage;  // last page this cursor read from disk
};

class BTree {
 public:
  /// Creates a fresh empty tree (allocates the root leaf).
  explicit BTree(storage::Pager pager);

  /// Inserts or replaces. Returns true iff a new key was added.
  Result<bool> Put(std::string_view key, std::string_view value);

  /// Removes an exact key.
  Status Delete(std::string_view key);

  /// Point lookup of an exact key: height() pool fetches, each page read
  /// through a NodeView (no per-entry decoding). Many keys in ascending
  /// order go through a SortedLookup instead.
  Result<std::string> Get(std::string_view key) const;

  /// Cursor on the first entry with entry.key >= key: height() + 1 pool
  /// fetches up to the first entry (see Cursor).
  Cursor Seek(std::string_view key) const;
  Cursor SeekToFirst() const;

  uint32_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t size_bytes() const { return pager_.file()->size_bytes(); }
  /// Maintained incrementally (splits/merges/bulk load), so reading it costs
  /// no I/O — the planner polls it on every query. ValidateInvariants checks
  /// it against the actual leaf chain.
  uint64_t num_leaf_pages() const { return num_leaf_pages_; }
  storage::Pager* pager() const { return &pager_; }
  PageId root() const { return root_; }

  /// Walks the whole tree verifying ordering, separator, size, and leaf-chain
  /// invariants. Used by tests (including property tests after random
  /// workloads); O(n).
  Status ValidateInvariants() const;

  /// Used by BTreeBuilder to hand over a bulk-loaded tree.
  static BTree FromBuilt(storage::Pager pager, PageId root, uint32_t height,
                         uint64_t num_entries, uint64_t num_leaf_pages);

 private:
  friend class Cursor;
  friend class SortedLookup;

  struct SplitResult {
    bool split = false;
    std::string sep_key;
    PageId right = kInvalidPage;
  };

  BTree(storage::Pager pager, PageId root, uint32_t height, uint64_t n,
        uint64_t leaves)
      : pager_(pager),
        root_(root),
        height_(height),
        num_entries_(n),
        num_leaf_pages_(leaves) {}

  /// Decodes page `id` into a Node (the write paths and ValidateInvariants).
  Status ReadNode(PageId id, Node* out) const;
  void WriteNode(PageId id, const Node& node);
  /// Pins page `id` into *ref and parses it into *view (the read paths).
  /// The previous pin in *ref is released first, so a descent holds one pin
  /// at a time, exactly as one ReadNode per level did: the pool's eviction
  /// choices, and so every I/O counter, stay the same. `after` and
  /// `read_device` pass through to Pager::Get.
  Status PinNode(PageId id, storage::PageRef* ref, NodeView* view,
                 PageId after = kInvalidPage,
                 bool* read_device = nullptr) const;
  /// Descends from the root to the leaf covering `key`: one pool fetch per
  /// level, the leaf left pinned in *ref and parsed into *leaf.
  Status FindLeaf(std::string_view key, storage::PageRef* ref,
                  NodeView* leaf) const;

  Status PutRec(PageId page_id, std::string_view key, std::string_view value,
                SplitResult* split, bool* added);
  Status DeleteRec(PageId page_id, std::string_view key, bool* underflow);
  /// Attempts to merge parent->children[ci] with an adjacent sibling.
  Status TryMergeChild(Node* parent, size_t ci);

  Status ValidateRec(PageId page_id, uint32_t depth, std::string_view lo,
                     std::string_view hi, uint64_t* entries,
                     PageId* leftmost_leaf) const;

  size_t MaxNodeBytes() const { return pager_.page_size(); }
  size_t UnderflowBytes() const { return pager_.page_size() / 4; }

  mutable storage::Pager pager_;
  PageId root_;
  uint32_t height_;
  uint64_t num_entries_ = 0;
  uint64_t num_leaf_pages_ = 1;
};

}  // namespace upi::btree
