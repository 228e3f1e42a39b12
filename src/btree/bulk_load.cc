#include "btree/bulk_load.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace upi::btree {

namespace {
// Output double-buffer size: pages are written in bursts of this many.
constexpr size_t kOutputBatchPages = 256;
}  // namespace

BTreeBuilder::BTreeBuilder(storage::Pager pager, double fill_factor)
    : pager_(pager),
      fill_bytes_(static_cast<size_t>(pager.page_size() * fill_factor)) {
  if (fill_bytes_ < kNodeHeaderSize + 64) fill_bytes_ = kNodeHeaderSize + 64;
}

void BTreeBuilder::QueuePage(storage::PageId id, std::string bytes) {
  UPI_CHECK(bytes.size() <= pager_.page_size(),
            "bulk-loaded node overflows its page");
  pending_.push_back(PendingPage{
      id, std::make_shared<const std::string>(std::move(bytes))});
  if (pending_.size() >= kOutputBatchPages) FlushPending();
}

void BTreeBuilder::WritePage(storage::PageId id, const Node& node) {
  std::string bytes;
  node.Serialize(&bytes);
  QueuePage(id, std::move(bytes));
}

void BTreeBuilder::WriteLeaf(storage::PageId right_sibling) {
  std::string bytes;
  bytes.reserve(kNodeHeaderSize + leaf_entries_.size());
  Node::AppendHeader(/*is_leaf=*/true, leaf_count_, right_sibling, &bytes);
  bytes.append(leaf_entries_);
  QueuePage(leaf_page_, std::move(bytes));
  ++leaf_pages_;
  AddToLevel(1, leaf_first_key_, leaf_page_);
  leaf_entries_.clear();
  leaf_count_ = 0;
}

void BTreeBuilder::FlushPending() {
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingPage& a, const PendingPage& b) { return a.id < b.id; });
  for (PendingPage& p : pending_) {
    pager_.file()->Write(p.id, std::move(p.image));
  }
  pending_.clear();
}

storage::PageId BTreeBuilder::AllocAndWrite(const Node& node) {
  storage::PageId id = pager_.file()->Allocate();
  WritePage(id, node);
  return id;
}

Status BTreeBuilder::Add(std::string_view key, std::string_view value) {
  if (finished_) return Status::Internal("builder already finished");
  if (started_ && key <= last_key_) {
    return Status::InvalidArgument("bulk load keys must be strictly ascending");
  }
  size_t esize = Node::LeafEntrySize(key, value);
  if (kNodeHeaderSize + esize > pager_.page_size()) {
    return Status::InvalidArgument("btree entry larger than page");
  }
  if (!started_) {
    leaf_page_ = pager_.file()->Allocate();
    started_ = true;
  }

  if (leaf_count_ > 0 &&
      kNodeHeaderSize + leaf_entries_.size() + esize > fill_bytes_) {
    // Allocate the successor leaf first so the sibling link is known.
    storage::PageId next_leaf = pager_.file()->Allocate();
    WriteLeaf(next_leaf);
    leaf_page_ = next_leaf;
  }

  if (leaf_count_ == 0) leaf_first_key_.assign(key.data(), key.size());
  Node::AppendLeafEntry(key, value, &leaf_entries_);
  ++leaf_count_;
  last_key_.assign(key.data(), key.size());
  ++count_;
  return Status::OK();
}

void BTreeBuilder::AddToLevel(size_t level, const std::string& first_key,
                              storage::PageId child) {
  if (levels_.size() <= level) {
    levels_.resize(level + 1);
    levels_[level].node.is_leaf = false;
  }
  {
    Level& L = levels_[level];
    size_t esize =
        Node::ChildEntrySize(L.node.children.empty() ? std::string_view() : first_key);
    if (!L.node.children.empty() && L.node.SerializedSize() + esize > fill_bytes_) {
      storage::PageId pid = AllocAndWrite(L.node);
      std::string fk = L.first_key;
      L.node = Node{};
      L.node.is_leaf = false;
      L.first_key.clear();
      AddToLevel(level + 1, fk, pid);  // may resize levels_
    }
  }
  Level& L = levels_[level];  // re-acquire after potential resize
  if (L.node.children.empty()) {
    L.first_key = first_key;
    L.node.children.push_back(ChildEntry{"", child});
  } else {
    L.node.children.push_back(ChildEntry{first_key, child});
  }
}

Result<BTree> BTreeBuilder::Finish() {
  if (finished_) return Status::Internal("builder already finished");
  finished_ = true;

  if (!started_) {
    // Empty tree: a single empty root leaf.
    Node n;
    n.is_leaf = true;
    storage::PageId root = AllocAndWrite(n);
    FlushPending();
    return BTree::FromBuilt(pager_, root, 1, 0, 1);
  }

  WriteLeaf(storage::kInvalidPage);

  for (size_t lvl = 1; lvl < levels_.size(); ++lvl) {
    Level& L = levels_[lvl];
    if (L.node.children.empty()) continue;
    bool is_top = lvl + 1 == levels_.size();
    if (is_top && L.node.children.size() == 1) {
      storage::PageId root = L.node.children[0].child;
      FlushPending();
      return BTree::FromBuilt(pager_, root, static_cast<uint32_t>(lvl), count_,
                              leaf_pages_);
    }
    // Copy first_key before AddToLevel: a resize of levels_ would invalidate
    // a reference into L.
    std::string fk = L.first_key;
    storage::PageId pid = AllocAndWrite(L.node);
    AddToLevel(lvl + 1, fk, pid);
  }
  // Unreachable for started_ builders: the loop always terminates at a
  // single-child top level.
  return Status::Internal("bulk load did not converge to a root");
}

}  // namespace upi::btree
