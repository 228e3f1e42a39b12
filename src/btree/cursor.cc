#include "btree/btree.h"

#include "common/check.h"

namespace upi::btree {

Cursor::Cursor(const BTree* tree, PageId leaf_id, std::string_view key)
    : tree_(tree) {
  NodeView view;
  if (!LoadLeaf(leaf_id, &view)) return;
  idx_ = view.LowerBound(key, &offset_);
  SkipForwardToValid();
}

bool Cursor::LoadLeaf(PageId id, NodeView* view) {
  leaf_ = tree_->pager_.Get(id).image();  // pinned for this statement only
  valid_ = NodeView::Parse(*leaf_, view).ok() && view->is_leaf();
  if (!valid_) return false;
  right_sibling_ = view->right_sibling();
  count_ = view->count();
  idx_ = 0;
  offset_ = kNodeHeaderSize;
  return true;
}

void Cursor::MaybePrefetch() {
  if (readahead_ == 0) return;
  if (prefetch_remaining_ > 0) {
    --prefetch_remaining_;
    return;
  }
  // Fetch the next readahead_ leaves of the chain in one burst; they are
  // then pool hits when the merge actually reaches them.
  PageId next = right_sibling_;
  for (uint32_t i = 0; i < readahead_ && next != kInvalidPage; ++i) {
    storage::PageRef ref = tree_->pager_.Get(next);
    if (!NodeView::PeekRightSibling(*ref.data(), &next).ok()) break;
  }
  prefetch_remaining_ = readahead_;
}

void Cursor::SkipForwardToValid() {
  while (valid_ && idx_ >= count_) {
    if (right_sibling_ == kInvalidPage) {
      valid_ = false;
      return;
    }
    NodeView view;
    if (LoadLeaf(right_sibling_, &view)) MaybePrefetch();
  }
  if (!valid_) return;
  // Next() steps onto the following entry.
  offset_ = DecodeEntry(*leaf_, offset_, /*is_leaf=*/true, &entry_);
}

void Cursor::Next() {
  if (!valid_) return;
  ++idx_;
  SkipForwardToValid();
}

Status SortedLookup::Descend(std::string_view key) {
  leaf_.reset();
  upper_.clear();
  storage::PageRef ref;
  NodeView view;
  PageId id = tree_->root_;
  for (uint32_t depth = 1;; ++depth) {
    // Only the leaf may read forward from the previous device read; an
    // upper level the descent reads moves the head, so it becomes the
    // previous read.
    const bool leaf_level = depth >= tree_->height_;
    bool read = false;
    UPI_RETURN_NOT_OK(tree_->PinNode(
        id, &ref, &view, leaf_level ? prev_read_ : kInvalidPage, &read));
    if (read) {
      prev_read_ = id;
    } else if (leaf_level) {
      prev_read_ = kInvalidPage;
    }
    if (view.is_leaf()) break;
    std::string_view upper;
    id = view.ChildFor(key, &upper);
    // Deeper levels bound the leaf more tightly, so the last one found wins.
    if (!upper.empty()) upper_.assign(upper);
  }
  leaf_ = ref.image();
  count_ = view.count();
  idx_ = 0;
  offset_ = kNodeHeaderSize;
  return Status::OK();
}

Status SortedLookup::Get(std::string_view key, std::string_view* value) {
  UPI_CHECK(key >= last_key_,
            "SortedLookup keys must arrive in ascending order");
  last_key_.assign(key);
  if (leaf_ == nullptr || (!upper_.empty() && key >= upper_)) {
    UPI_RETURN_NOT_OK(Descend(key));
  }
  // The image was validated when it was pinned, so every entry decodes.
  EntryView e;
  for (; idx_ < count_; ++idx_) {
    size_t next = DecodeEntry(*leaf_, offset_, /*is_leaf=*/true, &e);
    int c = e.key.compare(key);
    if (c == 0) {
      *value = e.value;
      return Status::OK();
    }
    if (c > 0) break;
    offset_ = next;
  }
  return Status::NotFound("key not in btree");
}

}  // namespace upi::btree
