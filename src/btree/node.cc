#include "btree/node.h"

#include <algorithm>

#include "common/coding.h"

namespace upi::btree {

namespace {
size_t VarintLen(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

size_t Node::LeafEntrySize(std::string_view key, std::string_view value) {
  return VarintLen(static_cast<uint32_t>(key.size())) + key.size() +
         VarintLen(static_cast<uint32_t>(value.size())) + value.size();
}

size_t Node::ChildEntrySize(std::string_view key) {
  return VarintLen(static_cast<uint32_t>(key.size())) + key.size() + 4;
}

size_t Node::SerializedSize() const {
  size_t sz = kNodeHeaderSize;
  if (is_leaf) {
    for (const auto& e : entries) sz += LeafEntrySize(e.key, e.value);
  } else {
    for (const auto& c : children) sz += ChildEntrySize(c.key);
  }
  return sz;
}

void Node::AppendHeader(bool is_leaf, uint32_t count, PageId right_sibling,
                        std::string* out) {
  out->push_back(is_leaf ? '\x01' : '\x00');
  out->append(3, '\x00');
  PutFixed32(out, count);
  PutFixed32(out, right_sibling);
}

void Node::AppendLeafEntry(std::string_view key, std::string_view value,
                           std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(key.size()));
  out->append(key);
  PutVarint32(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

void Node::Serialize(std::string* out) const {
  out->clear();
  AppendHeader(is_leaf, static_cast<uint32_t>(Count()), right_sibling, out);
  if (is_leaf) {
    for (const auto& e : entries) AppendLeafEntry(e.key, e.value, out);
  } else {
    for (const auto& c : children) {
      PutVarint32(out, static_cast<uint32_t>(c.key.size()));
      out->append(c.key);
      PutFixed32(out, c.child);
    }
  }
}

Status Node::Deserialize(std::string_view page, Node* out) {
  NodeView view;
  UPI_RETURN_NOT_OK(NodeView::Parse(page, &view));
  out->is_leaf = view.is_leaf();
  out->right_sibling = view.right_sibling();
  out->entries.clear();
  out->children.clear();
  if (out->is_leaf) {
    out->entries.reserve(view.count());
  } else {
    out->children.reserve(view.count());
  }
  view.Walk([out](const EntryView& e, size_t) {
    if (out->is_leaf) {
      out->entries.push_back(LeafEntry{std::string(e.key), std::string(e.value)});
    } else {
      out->children.push_back(ChildEntry{std::string(e.key), e.child});
    }
    return true;
  });
  return Status::OK();
}

size_t Node::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const LeafEntry& e, std::string_view k) { return e.key < k; });
  return static_cast<size_t>(it - entries.begin());
}

size_t Node::ChildIndex(std::string_view key) const {
  // children[0].key is empty and compares <= everything, so upper_bound over
  // keys > `key` minus one lands on the covering child.
  size_t lo = 0, hi = children.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (std::string_view(children[mid].key) <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Entry walk and NodeView
// ---------------------------------------------------------------------------

namespace {
/// Reads a varint length at *p and the `len` bytes after it into *out,
/// advancing *p; false if either runs past `limit`. Lengths below 128 (one
/// byte) take the inline path.
inline bool ReadLengthPrefixed(const char** p, const char* limit,
                               std::string_view* out) {
  uint32_t len = 0;
  size_t n = 1;
  if (*p < limit && (static_cast<uint8_t>(**p) & 0x80) == 0) {
    len = static_cast<uint8_t>(**p);
  } else {
    n = GetVarint32(*p, limit, &len);
    if (n == 0) return false;
  }
  if (len > static_cast<size_t>(limit - *p) - n) return false;
  *out = std::string_view(*p + n, len);
  *p += n + len;
  return true;
}
}  // namespace

size_t DecodeEntry(std::string_view page, size_t offset, bool is_leaf,
                   EntryView* entry) {
  const char* p = page.data() + offset;
  const char* limit = page.data() + page.size();
  if (!ReadLengthPrefixed(&p, limit, &entry->key)) return 0;
  if (is_leaf) {
    if (!ReadLengthPrefixed(&p, limit, &entry->value)) return 0;
  } else {
    if (limit - p < 4) return 0;
    entry->child = GetFixed32(p);
    p += 4;
  }
  return static_cast<size_t>(p - page.data());
}

Status NodeView::Parse(std::string_view page, NodeView* out) {
  if (page.size() < kNodeHeaderSize) return Status::Corruption("btree node too small");
  out->page_ = page;
  out->is_leaf_ = page[0] == '\x01';
  out->count_ = GetFixed32(page.data() + 4);
  out->right_sibling_ = GetFixed32(page.data() + 8);
  if (!out->is_leaf_ && out->count_ == 0) {
    return Status::Corruption("btree internal node without children");
  }
  size_t offset = kNodeHeaderSize;
  EntryView e;
  for (uint32_t i = 0; i < out->count_; ++i) {
    offset = DecodeEntry(page, offset, out->is_leaf_, &e);
    if (offset == 0) {
      return Status::Corruption(out->is_leaf_ ? "bad btree leaf entry"
                                              : "bad btree child entry");
    }
  }
  return Status::OK();
}

Status NodeView::PeekRightSibling(std::string_view page, PageId* out) {
  if (page.size() < kNodeHeaderSize) return Status::Corruption("btree node too small");
  *out = GetFixed32(page.data() + 8);
  return Status::OK();
}

PageId NodeView::ChildFor(std::string_view key, std::string_view* upper) const {
  // Entry 0's key is empty and covers everything below the first separator;
  // otherwise the last separator <= key wins (keys ascend).
  PageId child = kInvalidPage;
  bool first = true;
  Walk([&](const EntryView& e, size_t) {
    if (!first && e.key > key) {
      if (upper != nullptr) *upper = e.key;
      return false;
    }
    child = e.child;
    first = false;
    return true;
  });
  return child;
}

PageId NodeView::FirstChild() const {
  PageId child = kInvalidPage;
  Walk([&](const EntryView& e, size_t) {
    child = e.child;
    return false;
  });
  return child;
}

uint32_t NodeView::LowerBound(std::string_view key, size_t* offset) const {
  uint32_t index = 0;
  Walk([&](const EntryView& e, size_t at) {
    *offset = at;
    if (e.key >= key) return false;
    ++index;
    return true;
  });
  return index;
}

bool NodeView::Find(std::string_view key, std::string_view* value) const {
  bool found = false;
  Walk([&](const EntryView& e, size_t) {
    int c = e.key.compare(key);
    if (c < 0) return true;
    if (c == 0) {
      *value = e.value;
      found = true;
    }
    return false;
  });
  return found;
}

}  // namespace upi::btree
