// B+Tree node page format, and the two ways of reading it.
//
// A page is a 12-byte header (is-leaf byte, three pad bytes, fixed32 entry
// count, fixed32 right sibling) followed by `count` entries: leaf entries are
// varint-length key and value, internal entries a varint-length key and a
// fixed32 child page. DecodeEntry is the one place that format is parsed.
//
// Reads go through NodeView: it validates a page in one allocation-free pass
// and then answers lookups over string_views into the page, so a point
// lookup or a descent costs no allocation per entry. Decoding every entry
// into std::strings on every read was the measured host-CPU hot spot of
// pointer-chasing queries. Writes (Put, Delete) still decode the page into a
// Node, mutate it and serialize it back, trading some CPU for a much simpler
// implementation than in-place slotted updates; the bulk loader appends each
// leaf's entries directly. None of this moves the simulated clock: all I/O
// cost accounting happens at the page layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/page_file.h"

namespace upi::btree {

using storage::PageId;
using storage::kInvalidPage;

/// Entry of a leaf node: a full (key, value) record.
struct LeafEntry {
  std::string key;
  std::string value;
};

/// Entry of an internal node: separator key plus child pointer. The first
/// entry's key is always empty (the leftmost child has no lower separator).
struct ChildEntry {
  std::string key;
  PageId child = kInvalidPage;
};

struct Node {
  bool is_leaf = true;
  PageId right_sibling = kInvalidPage;  // leaf chain; unused for internal
  std::vector<LeafEntry> entries;       // leaf payload
  std::vector<ChildEntry> children;     // internal payload

  size_t Count() const { return is_leaf ? entries.size() : children.size(); }

  /// Bytes this node occupies when serialized.
  size_t SerializedSize() const;

  void Serialize(std::string* out) const;
  static Status Deserialize(std::string_view page, Node* out);

  /// The serialized pieces Serialize is built from: the header, and one
  /// leaf entry. The bulk loader writes leaf pages with them directly.
  static void AppendHeader(bool is_leaf, uint32_t count, PageId right_sibling,
                           std::string* out);
  static void AppendLeafEntry(std::string_view key, std::string_view value,
                              std::string* out);

  /// Serialized size contribution of one leaf entry.
  static size_t LeafEntrySize(std::string_view key, std::string_view value);
  /// Serialized size contribution of one internal entry.
  static size_t ChildEntrySize(std::string_view key);

  /// Index of the first leaf entry with entry.key >= key (lower bound).
  size_t LowerBound(std::string_view key) const;

  /// For internal nodes: index of the child subtree that covers `key`
  /// (largest i with children[i].key <= key; index 0 if none).
  size_t ChildIndex(std::string_view key) const;
};

inline constexpr size_t kNodeHeaderSize = 12;

/// One entry of a serialized node, read in place.
struct EntryView {
  std::string_view key;
  std::string_view value;       // leaf entries
  PageId child = kInvalidPage;  // internal entries
};

/// Decodes the entry that starts at byte `offset` of `page` (entry 0 starts
/// at kNodeHeaderSize, each later one where its predecessor ended). Returns
/// the offset just past it, or 0 if the entry runs past the page.
size_t DecodeEntry(std::string_view page, size_t offset, bool is_leaf,
                   EntryView* entry);

/// \brief Read-only view of one serialized node. Parse checks the header and
/// every entry's bounds, so lookups never read past the page; the view
/// borrows the page bytes and is valid only while they are (for a page of
/// the pool: while its pin, or a kept storage::PageImage, holds them).
class NodeView {
 public:
  /// Validates `page` without allocating. A truncated or garbage page, or an
  /// internal node without children, is Corruption.
  static Status Parse(std::string_view page, NodeView* out);
  /// Reads only the header's right-sibling field (leaf readahead follows the
  /// chain without parsing entries).
  static Status PeekRightSibling(std::string_view page, PageId* out);

  bool is_leaf() const { return is_leaf_; }
  uint32_t count() const { return count_; }
  PageId right_sibling() const { return right_sibling_; }

  /// Calls `fn(entry, offset)` for each entry in order while it returns true.
  template <typename Fn>
  void Walk(Fn&& fn) const {
    size_t offset = kNodeHeaderSize;
    EntryView e;
    for (uint32_t i = 0; i < count_; ++i) {
      size_t next = DecodeEntry(page_, offset, is_leaf_, &e);
      if (!fn(e, offset)) return;
      offset = next;
    }
  }

  /// Internal nodes: the child subtree covering `key` (Node::ChildIndex).
  /// When `upper` is given and the child is not the node's last, *upper
  /// gets the separator after it: the child covers only keys below it.
  PageId ChildFor(std::string_view key, std::string_view* upper = nullptr) const;
  PageId FirstChild() const;

  /// Leaf nodes: index of the first entry with key >= `key`. When that is
  /// below count(), *offset gets the entry's byte offset, which holds for any
  /// copy of the page bytes.
  uint32_t LowerBound(std::string_view key, size_t* offset) const;
  /// Leaf nodes: the value stored under exactly `key`, if any.
  bool Find(std::string_view key, std::string_view* value) const;

 private:
  std::string_view page_;
  bool is_leaf_ = true;
  uint32_t count_ = 0;
  PageId right_sibling_ = kInvalidPage;
};

}  // namespace upi::btree
