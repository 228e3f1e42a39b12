#include "btree/btree.h"

namespace upi::btree {

Cursor::Cursor(const BTree* tree, PageId leaf_id, std::string_view key)
    : tree_(tree) {
  NodeView view;
  if (!CopyLeaf(leaf_id, &view)) return;
  idx_ = view.LowerBound(key, &offset_);
  SkipForwardToValid();
}

bool Cursor::CopyLeaf(PageId id, NodeView* view) {
  {
    storage::PageRef ref = tree_->pager_.Get(id);
    leaf_.assign(*ref.data());
  }
  valid_ = NodeView::Parse(leaf_, view).ok() && view->is_leaf();
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
    if (CopyLeaf(right_sibling_, &view)) MaybePrefetch();
  }
  if (!valid_) return;
  EntryView e;
  size_t next = DecodeEntry(leaf_, offset_, /*is_leaf=*/true, &e);
  key_off_ = static_cast<size_t>(e.key.data() - leaf_.data());
  key_len_ = e.key.size();
  value_off_ = static_cast<size_t>(e.value.data() - leaf_.data());
  value_len_ = e.value.size();
  offset_ = next;  // Next() steps onto the following entry
}

void Cursor::Next() {
  if (!valid_) return;
  ++idx_;
  SkipForwardToValid();
}

}  // namespace upi::btree
